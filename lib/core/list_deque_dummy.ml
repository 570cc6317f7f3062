(* The footnote-4 / Figure 10 variant of the linked-list deque: the
   deleted bit is eliminated by indirection through "dummy" nodes.  A
   sentinel's inward pointer that refers to a node directly encodes
   deleted = false; one that refers to a dummy node — a node whose
   immutable identity carries the reference to the marked node —
   encodes deleted = true.

   The paper gives each processor a reusable left and right dummy; here
   a fresh dummy is allocated per marking, which is equivalent (a dummy
   is private until published by the marking DCAS, and GC reclaims it)
   and keeps the code free of processor registration.  A dummy's
   referent is part of its [kind] — an ordinary immutable field fixed
   at construction, mirroring how the paper distinguishes dummies
   structurally ("a special dummy type ... distinguishable from regular
   nodes") — so decoding a link costs exactly one shared read, the same
   as the deleted-bit representation.  Link words hold a bare node
   reference; [read_link] decodes it into the same (pointer, deleted)
   view the Section 4 algorithm uses.  Apart from this codec the
   control flow is exactly that of Figures 11, 13, 17 and their
   mirrors, which is what experiment E11 tests: the two encodings are
   behaviourally identical, trading a pointer tag bit for one
   allocation per pop. *)

module type ALGORITHM = List_deque_intf.ALGORITHM

module Make (M : Dcas.Memory_intf.MEMORY) = struct
  type 'a cell = Null | SentL | SentR | Item of 'a

  type 'a node = {
    kind : 'a kind;
    left : 'a node_ref M.loc;
    right : 'a node_ref M.loc;
    value : 'a cell M.loc;
  }

  and 'a kind = Regular | Dummy_for of 'a node
  and 'a node_ref = Nil | Node of 'a node

  type 'a t = { sl : 'a node; sr : 'a node; alloc : Alloc.t }

  let name = "list-deque-dummy/" ^ M.name

  let node_ref_equal a b =
    match (a, b) with
    | Nil, Nil -> true
    | Node x, Node y -> x == y
    | (Nil | Node _), _ -> false

  let cell_equal a b =
    match (a, b) with
    | Null, Null | SentL, SentL | SentR, SentR -> true
    | Item x, Item y -> x == y
    | (Null | SentL | SentR | Item _), _ -> false

  let new_raw_node ?(kind = Regular) () =
    {
      kind;
      left = M.make ~equal:node_ref_equal Nil;
      right = M.make ~equal:node_ref_equal Nil;
      value = M.make ~equal:cell_equal Null;
    }

  (* Long-lived and hit by every operation; padded so the two
     sentinels' hot words do not share cache lines.  Dummies stay
     unpadded — they are transient. *)
  let new_sentinel_node () =
    {
      kind = Regular;
      left = M.make_padded ~equal:node_ref_equal Nil;
      right = M.make_padded ~equal:node_ref_equal Nil;
      value = M.make_padded ~equal:cell_equal Null;
    }

  let node_of = function
    | Node n -> n
    | Nil -> assert false

  (* Decoded view of a link word: the logical (ptr, deleted) pair plus
     the raw reference actually stored, which is what a DCAS must use
     as its expected value.  One shared read. *)
  type 'a link = { ptr : 'a node; deleted : bool; raw : 'a node_ref }

  let read_link loc =
    let raw = M.get loc in
    let n = node_of raw in
    match n.kind with
    | Dummy_for target -> { ptr = target; deleted = true; raw }
    | Regular -> { ptr = n; deleted = false; raw }

  (* Encoders for new pointer values. *)
  let direct n = Node n

  let marked n =
    (* The paper preallocates one reusable dummy per processor per
       side; dummies never count against the allocator budget.  A fresh
       dummy per marking is behaviourally the same (it is private until
       the marking DCAS publishes it). *)
    Node (new_raw_node ~kind:(Dummy_for n) ())

  let make ?(alloc = Alloc.unbounded) ?(recycle = false) () =
    if recycle then
      invalid_arg "List_deque_dummy.make: node recycling is only implemented for List_deque";
    let sl = new_sentinel_node () and sr = new_sentinel_node () in
    M.set_private sl.value SentL;
    M.set_private sr.value SentR;
    M.set_private sl.right (Node sr);
    M.set_private sr.left (Node sl);
    { sl; sr; alloc }

  let create ~capacity:_ () = make ()

  (* Figure 17 under the dummy encoding.  As in [List_deque], retries
     that follow a failed DCAS back off before looping. *)
  let delete_right t =
    let b = Dcas.Backoff.create () in
    let rec loop () =
      let old_l = read_link t.sr.left in
      if not old_l.deleted then ()
      else begin
        let target = old_l.ptr in
        let old_ll = node_of (M.get target.left) in
        match M.get old_ll.value with
        | Null ->
            (* SL must still name [old_ll]: the adjacency check of
               [List_deque.delete_right_from] *)
            let old_r = read_link t.sl.right in
            if old_r.deleted && old_r.ptr == old_ll then begin
              if
                M.dcas t.sr.left t.sl.right old_l.raw old_r.raw (direct t.sl)
                  (direct t.sr)
              then begin
                (* two null nodes became unreachable *)
                Alloc.free t.alloc;
                Alloc.free t.alloc
              end
              else begin
                Dcas.Backoff.once b;
                loop ()
              end
            end
            else loop ()
        | SentL | SentR | Item _ ->
            let old_llr = M.get old_ll.right in
            if node_ref_equal old_llr (Node target) then begin
              if
                M.dcas t.sr.left old_ll.right old_l.raw old_llr (direct old_ll)
                  (direct t.sr)
              then Alloc.free t.alloc
              else begin
                Dcas.Backoff.once b;
                loop ()
              end
            end
            else loop ()
      end
    in
    loop ()

  (* Figure 34 under the dummy encoding. *)
  let delete_left t =
    let b = Dcas.Backoff.create () in
    let rec loop () =
      let old_r = read_link t.sl.right in
      if not old_r.deleted then ()
      else begin
        let target = old_r.ptr in
        let old_rr = node_of (M.get target.right) in
        match M.get old_rr.value with
        | Null ->
            let old_l = read_link t.sr.left in
            if old_l.deleted && old_l.ptr == old_rr then begin
              if
                M.dcas t.sl.right t.sr.left old_r.raw old_l.raw (direct t.sr)
                  (direct t.sl)
              then begin
                Alloc.free t.alloc;
                Alloc.free t.alloc
              end
              else begin
                Dcas.Backoff.once b;
                loop ()
              end
            end
            else loop ()
        | SentL | SentR | Item _ ->
            let old_rrl = M.get old_rr.left in
            if node_ref_equal old_rrl (Node target) then begin
              if
                M.dcas t.sl.right old_rr.left old_r.raw old_rrl (direct old_rr)
                  (direct t.sl)
              then Alloc.free t.alloc
              else begin
                Dcas.Backoff.once b;
                loop ()
              end
            end
            else loop ()
      end
    in
    loop ()

  (* Figure 11 under the dummy encoding. *)
  let pop_right t =
    let b = Dcas.Backoff.create () in
    let rec loop () =
      let old_l = read_link t.sr.left in
      let target = old_l.ptr in
      let v = M.get target.value in
      match v with
      | SentL -> `Empty
      | SentR -> assert false
      | Null | Item _ ->
          if old_l.deleted then begin
            delete_right t;
            loop ()
          end
          else begin
            match v with
            | Null ->
                if M.dcas t.sr.left target.value old_l.raw v old_l.raw v then
                  `Empty
                else begin
                  Dcas.Backoff.once b;
                  loop ()
                end
            | Item x ->
                let new_raw = marked target in
                if M.dcas t.sr.left target.value old_l.raw v new_raw Null then
                  `Value x
                else begin
                  Dcas.Backoff.once b;
                  loop ()
                end
            | SentL | SentR -> assert false
          end
    in
    loop ()

  (* Figure 32 under the dummy encoding. *)
  let pop_left t =
    let b = Dcas.Backoff.create () in
    let rec loop () =
      let old_r = read_link t.sl.right in
      let target = old_r.ptr in
      let v = M.get target.value in
      match v with
      | SentR -> `Empty
      | SentL -> assert false
      | Null | Item _ ->
          if old_r.deleted then begin
            delete_left t;
            loop ()
          end
          else begin
            match v with
            | Null ->
                if M.dcas t.sl.right target.value old_r.raw v old_r.raw v then
                  `Empty
                else begin
                  Dcas.Backoff.once b;
                  loop ()
                end
            | Item x ->
                let new_raw = marked target in
                if M.dcas t.sl.right target.value old_r.raw v new_raw Null then
                  `Value x
                else begin
                  Dcas.Backoff.once b;
                  loop ()
                end
            | SentL | SentR -> assert false
          end
    in
    loop ()

  (* Figure 13 under the dummy encoding. *)
  let push_right t v =
    if not (Alloc.try_alloc t.alloc) then `Full
    else begin
      let nn = new_raw_node () in
      let b = Dcas.Backoff.create () in
      let rec loop () =
        let old_l = read_link t.sr.left in
        if old_l.deleted then begin
          delete_right t;
          loop ()
        end
        else begin
          let target = old_l.ptr in
          M.set_private nn.right (Node t.sr);
          M.set_private nn.left old_l.raw;
          M.set_private nn.value (Item v);
          let old_lr = M.get target.right in
          if not (node_ref_equal old_lr (Node t.sr)) then loop ()
          else if
            M.dcas t.sr.left target.right old_l.raw old_lr (direct nn)
              (direct nn)
          then `Okay
          else begin
            Dcas.Backoff.once b;
            loop ()
          end
        end
      in
      loop ()
    end

  (* Figure 33 under the dummy encoding. *)
  let push_left t v =
    if not (Alloc.try_alloc t.alloc) then `Full
    else begin
      let nn = new_raw_node () in
      let b = Dcas.Backoff.create () in
      let rec loop () =
        let old_r = read_link t.sl.right in
        if old_r.deleted then begin
          delete_left t;
          loop ()
        end
        else begin
          let target = old_r.ptr in
          M.set_private nn.left (Node t.sl);
          M.set_private nn.right old_r.raw;
          M.set_private nn.value (Item v);
          let old_rl = M.get target.left in
          if not (node_ref_equal old_rl (Node t.sl)) then loop ()
          else if
            M.dcas t.sl.right target.left old_r.raw old_rl (direct nn)
              (direct nn)
          then `Okay
          else begin
            Dcas.Backoff.once b;
            loop ()
          end
        end
      in
      loop ()
    end

  (* --- Quiescent inspection --- *)

  let resolve n =
    match n.kind with Dummy_for target -> target | Regular -> n

  let unsafe_to_list t =
    let rec walk node acc =
      match M.get node.value with
      | SentR -> List.rev acc
      | SentL | Null -> walk (next node) acc
      | Item v -> walk (next node) (v :: acc)
    and next node = resolve (node_of (M.get node.right)) in
    walk (next t.sl) []

  (* Invariant: decoding every link must yield a structure satisfying
     the Figures 24-25 invariant; additionally dummies may appear only
     as the immediate target of a sentinel's inward pointer. *)
  let check_invariant t =
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let max_nodes = 1_000_000 in
    let sl_r = read_link t.sl.right and sr_l = read_link t.sr.left in
    let rec collect node acc n =
      if n > max_nodes then Error "chain too long (cycle?)"
      else if node == t.sr then Ok (List.rev acc)
      else
        let nxt = node_of (M.get node.right) in
        match nxt.kind with
        | Dummy_for _ -> Error "dummy node in an interior right link"
        | Regular -> collect nxt (node :: acc) (n + 1)
    in
    match collect sl_r.ptr [] 0 with
    | Error e -> Error e
    | Ok chain ->
        let n = List.length chain in
        let rec distinct = function
          | [] -> true
          | x :: rest -> (not (List.memq x rest)) && distinct rest
        in
        if not (distinct chain) then fail "chain contains a repeated node"
        else begin
          let full_chain = (t.sl :: chain) @ [ t.sr ] in
          let rec check_links = function
            | a :: (b :: _ as rest) ->
                let b_left = resolve (node_of (M.get b.left)) in
                if b_left != a then fail "left pointer does not mirror right"
                else check_links rest
            | [ _ ] | [] -> Ok ()
          in
          match check_links full_chain with
          | Error e -> Error e
          | Ok () ->
              let rec check_values i = function
                | [] -> Ok ()
                | node :: rest -> (
                    let is_left_null = i = 0 && sl_r.deleted in
                    let is_right_null = i = n - 1 && sr_l.deleted in
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
              if (sl_r.deleted || sr_l.deleted) && n = 0 then
                fail "sentinel marked deleted but chain is empty"
              else if sl_r.deleted && sr_l.deleted && n = 1 then
                fail "both sentinels marked but only one node present"
              else check_values 0 chain
        end
end

module Lockfree = Make (Dcas.Mem_lockfree)
module Locked = Make (Dcas.Mem_lock)
module Striped = Make (Dcas.Mem_striped)
module Sequential = Make (Dcas.Mem_seq)
