(* The linked-list-based unbounded deque of Section 4 (Figures 11, 13,
   17 and the symmetric Figures 32, 33, 34).

   A doubly-linked list between two fixed sentinels SL and SR.  Pops are
   split in two atomic steps: a DCAS that "logically" deletes the
   rightmost (leftmost) node — nulling its value and setting a deleted
   bit packed into the sentinel's inward pointer word — and a later
   DCAS, performed by whichever operation next touches that side, that
   "physically" splices the node out and clears the bit.  The deleted
   bit is represented here as a [deleted] field of the immutable
   [pointer] record stored in a single memory location, mirroring the
   paper's bit packed into a pointer word via alignment.

   DCAS earns its keep in two places: the pop's simultaneous
   (sentinel-pointer, node-value) update, and the physical deletion
   when both sides contend for the last logically-deleted nodes
   (Figure 16), where the two DCASes overlap on a sentinel pointer and
   exactly one wins.

   Two typos in the published listings are corrected (see DESIGN.md):
   Figure 32 line 4 reads through the unbound [oldL] (should be
   [oldR]), and Figure 33 line 10 points the new node's L pointer at SR
   (should be SL). *)

module type ALGORITHM = List_deque_intf.ALGORITHM

module Make (M : Dcas.Memory_intf.MEMORY) = struct
  type 'a cell = Null | SentL | SentR | Item of 'a

  type 'a node = {
    left : 'a pointer M.loc;
    right : 'a pointer M.loc;
    value : 'a cell M.loc;
  }

  and 'a pointer = { ptr : 'a node_ref; deleted : bool }
  and 'a node_ref = Nil | Node of 'a node

  type 'a t = {
    sl : 'a node;
    sr : 'a node;
    alloc : Alloc.t;
    pool : 'a node list Atomic.t option;
        (* [Some _] simulates the absence of a garbage collector:
           physically deleted nodes go to this free pool and pushes
           reuse them immediately.  The paper's algorithms assume GC
           (Section 1.1, footnote 2); experiment E16 uses this mode to
           probe what that assumption actually protects. *)
    to_sl : 'a pointer;
    to_sr : 'a pointer;
        (* [{ptr = Node sl; deleted = false}] and its SR twin, built once:
           pushes and splices store them instead of rebuilding the same
           record.  Sound because [pointer_equal] is structural. *)
  }

  let name = "list-deque/" ^ M.name

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

  (* Passing [~equal:f] boxes [Some f] at every call; push makes three
     locations, so the options are built once here. *)
  let pointer_eq = Some pointer_equal
  let cell_eq = Some cell_equal

  (* A fresh node is created with its final contents: its locations are
     unpublished until the splice DCAS, so no write needs to follow. *)
  let new_node ~left ~right cell =
    {
      left = M.make ?equal:pointer_eq left;
      right = M.make ?equal:pointer_eq right;
      value = M.make ?equal:cell_eq cell;
    }

  (* [n] is [p]'s target: [node_ref_equal p.ptr (Node n)] without
     building the [Node]. *)
  let points_at p n = match p.ptr with Node x -> x == n | Nil -> false

  (* Sentinels live as long as the deque and their inward pointers are
     touched by every operation on their side; padding keeps SL's and
     SR's hot words off each other's (and the pool's) cache lines. *)
  let new_sentinel_node () =
    {
      left = M.make_padded ~equal:pointer_equal nil_pointer;
      right = M.make_padded ~equal:pointer_equal nil_pointer;
      value = M.make_padded ~equal:cell_equal Null;
    }

  (* Dereference a pointer that the representation invariant guarantees
     is non-nil (sentinels' inward pointers and list links). *)
  let node_of = function
    | Node n -> n
    | Nil -> assert false

  let make ?(alloc = Alloc.unbounded) ?(recycle = false) () =
    let sl = new_sentinel_node () and sr = new_sentinel_node () in
    let to_sl = { ptr = Node sl; deleted = false } in
    let to_sr = { ptr = Node sr; deleted = false } in
    M.set_private sl.value SentL;
    M.set_private sr.value SentR;
    M.set_private sl.right to_sr;
    M.set_private sr.left to_sl;
    {
      sl;
      sr;
      alloc;
      pool = (if recycle then Some (Atomic.make []) else None);
      to_sl;
      to_sr;
    }

  (* Recycling pool: a Treiber stack of freed nodes. *)
  let rec pool_put pool n =
    let cur = Atomic.get pool in
    if not (Atomic.compare_and_set pool cur (n :: cur)) then pool_put pool n

  let rec pool_take pool =
    match Atomic.get pool with
    | [] -> None
    | n :: rest as cur ->
        if Atomic.compare_and_set pool cur rest then Some n else pool_take pool

  (* A recycled node for a push, if the deque recycles and its pool has
     one. *)
  let recycled_node t =
    match t.pool with None -> None | Some pool -> pool_take pool

  (* A node became unreachable via a successful splice. *)
  let retire t n =
    Alloc.free t.alloc;
    match t.pool with None -> () | Some pool -> pool_put pool n

  let create ~capacity:_ () = make ()

  (* Figure 17: complete any pending right-side physical deletion.

     Retry points that follow a *failed* DCAS back off before looping:
     the failure proves another operation just won on the same words,
     so immediate retry only prolongs the convoy (Section 6 measures
     exactly this effect).  Retries after a plain re-read do not back
     off — the state may simply have been stale.

     Every retry loop below is a closed recursive function taking its
     state as arguments, and starts from [Dcas.Backoff.idle]: an
     operation that succeeds at its first DCAS allocates neither a loop
     closure nor a backoff record. *)
  let rec delete_right_from t b =
    let old_l = M.get t.sr.left in
    (* line 4: someone already finished the deletion *)
    if not old_l.deleted then ()
    else begin
      let target = node_of old_l.ptr in
      let old_ll = (M.get target.left).ptr in
      let ll = node_of old_ll in
      match M.get ll.value with
      | Null ->
          (* lines 16-26: two logically deleted nodes remain; try to
             point the sentinels at each other (Figure 16).  SL's
             pointer must still name [ll]: read after [ll]'s null, it
             may name a later deleted node with live items between it
             and [target], which the DCAS would unlink (see DESIGN.md,
             "The two-null adjacency check"). *)
          let old_r = M.get t.sl.right in
          if old_r.deleted && points_at old_r ll then begin
            if M.dcas t.sr.left t.sl.right old_l old_r t.to_sl t.to_sr then begin
              (* both null nodes became unreachable *)
              retire t target;
              retire t (node_of old_r.ptr)
            end
            else delete_right_from t (Dcas.Backoff.failed b)
          end
          else delete_right_from t b
      | SentL | SentR | Item _ ->
          (* lines 6-14: splice out the single null node by making
             SR and its left-left neighbor point at each other. *)
          let old_llr = M.get ll.right in
          if points_at old_llr target then begin
            let new_sr_l = { ptr = old_ll; deleted = false } in
            if M.dcas t.sr.left ll.right old_l old_llr new_sr_l t.to_sr then
              retire t target
            else delete_right_from t (Dcas.Backoff.failed b)
          end
          else delete_right_from t b
    end

  let delete_right t = delete_right_from t Dcas.Backoff.idle

  (* Figure 34 (typos fixed): left-side physical deletion. *)
  let rec delete_left_from t b =
    let old_r = M.get t.sl.right in
    if not old_r.deleted then ()
    else begin
      let target = node_of old_r.ptr in
      let old_rr = (M.get target.right).ptr in
      let rr = node_of old_rr in
      match M.get rr.value with
      | Null ->
          (* the mirror of [delete_right_from]'s adjacency check *)
          let old_l = M.get t.sr.left in
          if old_l.deleted && points_at old_l rr then begin
            if M.dcas t.sl.right t.sr.left old_r old_l t.to_sr t.to_sl then begin
              retire t target;
              retire t (node_of old_l.ptr)
            end
            else delete_left_from t (Dcas.Backoff.failed b)
          end
          else delete_left_from t b
      | SentL | SentR | Item _ ->
          let old_rrl = M.get rr.left in
          if points_at old_rrl target then begin
            let new_sl_r = { ptr = old_rr; deleted = false } in
            if M.dcas t.sl.right rr.left old_r old_rrl new_sl_r t.to_sl then
              retire t target
            else delete_left_from t (Dcas.Backoff.failed b)
          end
          else delete_left_from t b
    end

  let delete_left t = delete_left_from t Dcas.Backoff.idle

  (* Figure 11: right-side pop. *)
  let rec pop_right_from t b =
    let old_l = M.get t.sr.left in
    let target = node_of old_l.ptr in
    let v = M.get target.value in
    match v with
    | SentL -> `Empty (* line 5: SR points directly at SL *)
    | SentR -> assert false (* SR->L never points at SR *)
    | Null | Item _ ->
        if old_l.deleted then begin
          (* lines 6-7: finish the pending deletion, then retry *)
          delete_right t;
          pop_right_from t b
        end
        else begin
          match v with
          | Null ->
              (* lines 8-12: right neighbor logically deleted by a
                 popLeft; confirm (pointer, null) atomically and
                 report empty. *)
              if M.dcas t.sr.left target.value old_l v old_l v then `Empty
              else pop_right_from t (Dcas.Backoff.failed b)
          | Item x ->
              (* lines 13-19: claim the value and mark the node
                 deleted in the same DCAS. *)
              let new_l = { ptr = old_l.ptr; deleted = true } in
              if M.dcas t.sr.left target.value old_l v new_l Null then
                `Value x
              else pop_right_from t (Dcas.Backoff.failed b)
          | SentL | SentR -> assert false
        end

  let pop_right t = pop_right_from t Dcas.Backoff.idle

  (* Figure 32 (typo fixed): left-side pop. *)
  let rec pop_left_from t b =
    let old_r = M.get t.sl.right in
    let target = node_of old_r.ptr in
    let v = M.get target.value in
    match v with
    | SentR -> `Empty
    | SentL -> assert false
    | Null | Item _ ->
        if old_r.deleted then begin
          delete_left t;
          pop_left_from t b
        end
        else begin
          match v with
          | Null ->
              if M.dcas t.sl.right target.value old_r v old_r v then `Empty
              else pop_left_from t (Dcas.Backoff.failed b)
          | Item x ->
              let new_r = { ptr = old_r.ptr; deleted = true } in
              if M.dcas t.sl.right target.value old_r v new_r Null then
                `Value x
              else pop_left_from t (Dcas.Backoff.failed b)
          | SentL | SentR -> assert false
        end

  let pop_left t = pop_left_from t Dcas.Backoff.idle

  (* Figure 13: right-side push.  Lines 5-8: SR's left pointer, once no
     right-side deletion is pending. *)
  let rec settled_sr_left t =
    let old_l = M.get t.sr.left in
    if old_l.deleted then begin
      delete_right t;
      settled_sr_left t
    end
    else old_l

  (* Lines 10-15: splice [nn] in between SR and its left neighbor
     [old_l].  [nn] is fresh and unpublished, and its right link and
     value never change, so a retry re-sets only its left link. *)
  let rec splice_fresh_right t nn new_ptr old_l b =
    let target = node_of old_l.ptr in
    if M.dcas t.sr.left target.right old_l t.to_sr new_ptr new_ptr then `Okay
    else begin
      let b = Dcas.Backoff.failed b in
      let old_l = settled_sr_left t in
      M.set_private nn.left old_l;
      splice_fresh_right t nn new_ptr old_l b
    end

  (* A recycled node may still be referenced by stalled operations, so
     every pass (re)initializes all its fields with real shared writes,
     not [set_private]. *)
  let rec splice_recycled_right t nn new_ptr cell b =
    let old_l = settled_sr_left t in
    let target = node_of old_l.ptr in
    M.set nn.right t.to_sr;
    M.set nn.left old_l;
    M.set nn.value cell;
    if M.dcas t.sr.left target.right old_l t.to_sr new_ptr new_ptr then `Okay
    else splice_recycled_right t nn new_ptr cell (Dcas.Backoff.failed b)

  let push_right t v =
    if not (Alloc.try_alloc t.alloc) then `Full (* lines 2-3, footnote 3 *)
    else
      match recycled_node t with
      | Some nn ->
          splice_recycled_right t nn { ptr = Node nn; deleted = false } (Item v)
            Dcas.Backoff.idle
      | None ->
          let old_l = settled_sr_left t in
          let nn = new_node ~left:old_l ~right:t.to_sr (Item v) in
          splice_fresh_right t nn { ptr = Node nn; deleted = false } old_l
            Dcas.Backoff.idle

  (* Figure 33 (typo fixed): left-side push, the mirror image. *)
  let rec settled_sl_right t =
    let old_r = M.get t.sl.right in
    if old_r.deleted then begin
      delete_left t;
      settled_sl_right t
    end
    else old_r

  let rec splice_fresh_left t nn new_ptr old_r b =
    let target = node_of old_r.ptr in
    if M.dcas t.sl.right target.left old_r t.to_sl new_ptr new_ptr then `Okay
    else begin
      let b = Dcas.Backoff.failed b in
      let old_r = settled_sl_right t in
      M.set_private nn.right old_r;
      splice_fresh_left t nn new_ptr old_r b
    end

  let rec splice_recycled_left t nn new_ptr cell b =
    let old_r = settled_sl_right t in
    let target = node_of old_r.ptr in
    M.set nn.left t.to_sl;
    M.set nn.right old_r;
    M.set nn.value cell;
    if M.dcas t.sl.right target.left old_r t.to_sl new_ptr new_ptr then `Okay
    else splice_recycled_left t nn new_ptr cell (Dcas.Backoff.failed b)

  let push_left t v =
    if not (Alloc.try_alloc t.alloc) then `Full
    else
      match recycled_node t with
      | Some nn ->
          splice_recycled_left t nn { ptr = Node nn; deleted = false } (Item v)
            Dcas.Backoff.idle
      | None ->
          let old_r = settled_sl_right t in
          let nn = new_node ~left:t.to_sl ~right:old_r (Item v) in
          splice_fresh_left t nn { ptr = Node nn; deleted = false } old_r
            Dcas.Backoff.idle

  (* --- Quiescent inspection (tests and invariant checks only) --- *)

  let unsafe_to_list t =
    let rec walk node acc =
      match M.get node.value with
      | SentR -> List.rev acc
      | SentL | Null -> walk (node_of (M.get node.right).ptr) acc
      | Item v -> walk (node_of (M.get node.right).ptr) (v :: acc)
    in
    walk (node_of (M.get t.sl.right).ptr) []

  (* Executable rendition of the representation invariant of Figures 24
     and 25: the nodes from SL to SR form a consistent doubly-linked
     chain of distinct nodes; deleted bits appear only on the
     sentinels' inward pointers; a node holds null iff it is the
     neighbor of a sentinel whose inward pointer is marked deleted; all
     other interior nodes hold real values.  Quiescent use only. *)
  let check_invariant t =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let max_nodes = 1_000_000 in
    if not (cell_equal (M.get t.sl.value) SentL) then fail "SL value corrupted"
    else if not (cell_equal (M.get t.sr.value) SentR) then
      fail "SR value corrupted"
    else begin
      let sl_r = M.get t.sl.right and sr_l = M.get t.sr.left in
      (* collect the chain left-to-right, excluding sentinels *)
      let rec collect node acc n =
        if n > max_nodes then Error "chain too long (cycle?)"
        else if node == t.sr then Ok (List.rev acc)
        else collect (node_of (M.get node.right).ptr) (node :: acc) (n + 1)
      in
      match collect (node_of sl_r.ptr) [] 0 with
      | Error e -> Error e
      | Ok chain -> (
          (* distinctness *)
          let distinct =
            let rec go = function
              | [] -> true
              | x :: rest -> (not (List.memq x rest)) && go rest
            in
            go chain
          in
          if not distinct then fail "chain contains a repeated node"
          else begin
            (* doubly-linked consistency incl. sentinels, and interior
               pointer bits all false *)
            let full_chain = (t.sl :: chain) @ [ t.sr ] in
            let rec check_links = function
              | a :: (b :: _ as rest) ->
                  let ar = M.get a.right and bl = M.get b.left in
                  if not (node_ref_equal ar.ptr (Node b)) then
                    fail "right pointer does not reach next node"
                  else if not (node_ref_equal bl.ptr (Node a)) then
                    fail "left pointer does not reach previous node"
                  else if ar.deleted && a != t.sl then
                    fail "deleted bit on interior right pointer"
                  else if bl.deleted && b != t.sr then
                    fail "deleted bit on interior left pointer"
                  else check_links rest
              | [ _ ] | [] -> Ok ()
            in
            match check_links full_chain with
            | Error e -> Error e
            | Ok () ->
                (* null-value placement per the four conjuncts of
                   Figure 25 *)
                let n = List.length chain in
                let nulls_expected_left = if sl_r.deleted then 1 else 0 in
                let nulls_expected_right = if sr_l.deleted then 1 else 0 in
                let rec check_values i = function
                  | [] -> Ok ()
                  | node :: rest -> (
                      let is_left_null = i = 0 && nulls_expected_left = 1 in
                      let is_right_null =
                        i = n - 1 && nulls_expected_right = 1
                      in
                      match M.get node.value with
                      | Null ->
                          if is_left_null || is_right_null then
                            check_values (i + 1) rest
                          else fail "null value on an unmarked interior node"
                      | Item _ ->
                          if is_left_null || is_right_null then
                            fail "marked neighbor of sentinel holds a value"
                          else check_values (i + 1) rest
                      | SentL | SentR -> fail "sentinel value inside the chain")
                in
                if sl_r.deleted && n = 0 then
                  fail "SL marked deleted but chain is empty"
                else if sr_l.deleted && n = 0 then
                  fail "SR marked deleted but chain is empty"
                else if sl_r.deleted && sr_l.deleted && n = 1 then
                  fail "both sentinels marked but only one node present"
                else check_values 0 chain
          end)
    end
end

(* Ready-made instantiations on the four memory models. *)
module Lockfree = Make (Dcas.Mem_lockfree)
module Locked = Make (Dcas.Mem_lock)
module Striped = Make (Dcas.Mem_striped)
module Sequential = Make (Dcas.Mem_seq)
