(* A deliberately broken variant of the Section 4 list deque: the pop's
   claiming DCAS drops the logical-delete bit.

   In the correct algorithm (Figure 11 line 15) a pop atomically nulls
   the node's value AND marks the sentinel's inward pointer deleted, so
   later operations on that side first complete the physical deletion.
   Here the DCAS still nulls the value but writes the sentinel pointer
   back {e unmarked}, so the nulled husk looks like a live neighbor: a
   later pop on the same side sees [Null] on an unmarked pointer and —
   exactly as the correct algorithm's lines 8-12 prescribe for that
   observation — reports the deque empty while items remain beyond the
   husk.

   This is the planted target for the schedule fuzzer: the correct
   deques must survive any fuzz budget, while this one must yield a
   linearizability violation that shrinks to a couple of same-side pops
   (see test/test_fuzz.ml and the fuzz cram test).  Since the deleted
   bit is never set, the physical-deletion paths of Figures 17/34 are
   unreachable and are omitted. *)

module Make (M : Dcas.Memory_intf.MEMORY) = struct
  type 'a cell = Null | SentL | SentR | Item of 'a

  type 'a node = {
    left : 'a pointer M.loc;
    right : 'a pointer M.loc;
    value : 'a cell M.loc;
  }

  and 'a pointer = { ptr : 'a node_ref; deleted : bool }
  and 'a node_ref = Nil | Node of 'a node

  type 'a t = { sl : 'a node; sr : 'a node }

  let name = "list-deque-broken/" ^ M.name

  let node_ref_equal a b =
    match (a, b) with
    | Nil, Nil -> true
    | Node x, Node y -> x == y
    | (Nil | Node _), _ -> false

  let pointer_equal a b = a.deleted = b.deleted && node_ref_equal a.ptr b.ptr

  let cell_equal a b =
    match (a, b) with
    | Null, Null | SentL, SentL | SentR, SentR -> true
    | Item x, Item y -> x == y
    | (Null | SentL | SentR | Item _), _ -> false

  let nil_pointer = { ptr = Nil; deleted = false }

  let new_node () =
    {
      left = M.make ~equal:pointer_equal nil_pointer;
      right = M.make ~equal:pointer_equal nil_pointer;
      value = M.make ~equal:cell_equal Null;
    }

  let node_of = function Node n -> n | Nil -> assert false

  let make () =
    let sl = new_node () and sr = new_node () in
    M.set_private sl.value SentL;
    M.set_private sr.value SentR;
    M.set_private sl.right { ptr = Node sr; deleted = false };
    M.set_private sr.left { ptr = Node sl; deleted = false };
    { sl; sr }

  let create ~capacity:_ () = make ()

  let pop_right t =
    let rec loop () =
      let old_l = M.get t.sr.left in
      let target = node_of old_l.ptr in
      match M.get target.value with
      | SentL -> `Empty
      | SentR -> assert false
      | Null ->
          (* the husk left by a previous pop reads as "empty side" *)
          if M.dcas t.sr.left target.value old_l Null old_l Null then `Empty
          else loop ()
      | Item x ->
          (* BUG: the correct new pointer is { old_l.ptr; deleted =
             true }; writing [old_l] back drops the mark *)
          if M.dcas t.sr.left target.value old_l (Item x) old_l Null then
            `Value x
          else loop ()
    in
    loop ()

  let pop_left t =
    let rec loop () =
      let old_r = M.get t.sl.right in
      let target = node_of old_r.ptr in
      match M.get target.value with
      | SentR -> `Empty
      | SentL -> assert false
      | Null ->
          if M.dcas t.sl.right target.value old_r Null old_r Null then `Empty
          else loop ()
      | Item x ->
          if M.dcas t.sl.right target.value old_r (Item x) old_r Null then
            `Value x
          else loop ()
    in
    loop ()

  (* Pushes are the correct Figure 13/33 splices (the deleted bit is
     never set here, so their delete-completion prefix is moot). *)
  let push_right t v =
    let nn = new_node () in
    let rec loop () =
      let old_l = M.get t.sr.left in
      let target = node_of old_l.ptr in
      M.set_private nn.right { ptr = Node t.sr; deleted = false };
      M.set_private nn.left old_l;
      M.set_private nn.value (Item v);
      let old_lr = { ptr = Node t.sr; deleted = false } in
      let new_ptr = { ptr = Node nn; deleted = false } in
      if M.dcas t.sr.left target.right old_l old_lr new_ptr new_ptr then `Okay
      else loop ()
    in
    loop ()

  let push_left t v =
    let nn = new_node () in
    let rec loop () =
      let old_r = M.get t.sl.right in
      let target = node_of old_r.ptr in
      M.set_private nn.left { ptr = Node t.sl; deleted = false };
      M.set_private nn.right old_r;
      M.set_private nn.value (Item v);
      let old_rl = { ptr = Node t.sl; deleted = false } in
      let new_ptr = { ptr = Node nn; deleted = false } in
      if M.dcas t.sl.right target.left old_r old_rl new_ptr new_ptr then `Okay
      else loop ()
    in
    loop ()
end
