(* The array-based bounded deque of Section 3 (Figures 2, 3, 30, 31).

   The deque lives in a circular array [s] of [length] cells indexed by
   two counters [l] and [r], which always point at the next location a
   value can be inserted into from the left and right respectively.
   Emptiness and fullness are never decided from the relative positions
   of [l] and [r] — the paper's key observation is that both (L+1) mod
   length = R configurations are ambiguous — but from the combination
   of an index and the content of the cell it points at, confirmed
   atomically with a DCAS.

   The two optional optimizations the paper discusses are kept behind
   the [hints] flag (experiment E10):

   - the re-read of the index before attempting the "is it really
     empty/full?" confirmation DCAS (line 7 of Figures 2/3), and

   - the inspection of the strong DCAS's failing atomic view to return
     "empty"/"full" without retrying (lines 17-18).

   With [hints = false] the algorithm uses only the weak (boolean)
   DCAS, as the paper notes at the end of Section 3. *)

module type ALGORITHM = Array_deque_intf.ALGORITHM

module Make (M : Dcas.Memory_intf.MEMORY) = struct
  type 'a cell = Null | Item of 'a

  (* DCAS compares cells by constructor, and items by physical payload
     equality: algorithms only ever pass previously-read cells as
     expected values, so physical equality is exact and cannot diverge
     on cyclic user values. *)
  let cell_equal a b =
    match (a, b) with
    | Null, Null -> true
    | Item x, Item y -> x == y
    | (Null | Item _), _ -> false

  type 'a t = {
    l : int M.loc;
    r : int M.loc;
    s : 'a cell M.loc array;
    length : int;
    hints : bool;
  }

  let name = "array-deque/" ^ M.name

  (* Euclidean modulus: the paper specifies -1 mod 6 = 5. *)
  let ( %% ) a b = ((a mod b) + b) mod b

  let make ?(hints = true) ~length () =
    if length < 1 then invalid_arg "Array_deque.make: length must be >= 1";
    {
      (* The two end indices are the deque's permanent hot spots — every
         operation on a side reads and DCASes its index — and they are
         allocated back to back, so unpadded they share one cache line
         and the "independent ends" of E5 ping-pong it anyway.  [Int.equal]
         keeps their DCAS comparisons off the default polymorphic [( = )]. *)
      l = M.make_padded ~equal:Int.equal 0;
      r = M.make_padded ~equal:Int.equal (1 %% length);
      s = Array.init length (fun _ -> M.make ~equal:cell_equal Null);
      length;
      hints;
    }

  let create ~capacity () = make ~length:capacity ()

  (* Each operation is a closed recursive function over its backoff
     state, started from [Dcas.Backoff.idle] and advanced with
     [Dcas.Backoff.failed] at every retry point: an operation that
     succeeds on its first pass allocates neither a loop closure nor a
     backoff record. *)

  (* Figure 2: right-hand-side pop. *)
  let rec pop_right_from t b =
    let old_r = M.get t.r in
    let new_r = (old_r - 1) %% t.length in
    let old_s = M.get t.s.(new_r) in
    match old_s with
    | Null ->
        (* Lines 6-11: possibly empty; confirm the (index, null cell)
           pair atomically before reporting it. *)
        if
          ((not t.hints) || M.get t.r = old_r)
          && M.dcas t.r t.s.(new_r) old_r old_s old_r old_s
        then `Empty
        else pop_right_from t (Dcas.Backoff.failed b)
    | Item v ->
        (* Lines 12-20: try to claim the item. *)
        if t.hints then begin
          match M.dcas_strong t.r t.s.(new_r) old_r old_s new_r Null with
          | Swapped -> `Value v
          | Saw (got_r, got_s) ->
              if got_r = old_r && got_s == Null then
                (* Lines 17-18: index unchanged, so the cell changed; if
                   it is now null a competing pop on the other side stole
                   the last item (Figure 6) and the deque was empty at
                   the DCAS. *)
                `Empty
              else pop_right_from t (Dcas.Backoff.failed b)
        end
        else if M.dcas t.r t.s.(new_r) old_r old_s new_r Null then `Value v
        else pop_right_from t (Dcas.Backoff.failed b)

  let pop_right t = pop_right_from t Dcas.Backoff.idle

  (* Figure 3: right-hand-side push. *)
  let rec push_right_from t v b =
    let old_r = M.get t.r in
    let new_r = (old_r + 1) %% t.length in
    let old_s = M.get t.s.(old_r) in
    match old_s with
    | Item _ ->
        (* Lines 6-11: possibly full; confirm atomically. *)
        if
          ((not t.hints) || M.get t.r = old_r)
          && M.dcas t.r t.s.(old_r) old_r old_s old_r old_s
        then `Full
        else push_right_from t v (Dcas.Backoff.failed b)
    | Null ->
        (* Lines 12-19: try to insert. *)
        if t.hints then begin
          match M.dcas_strong t.r t.s.(old_r) old_r old_s new_r (Item v) with
          | Swapped -> `Okay
          | Saw (got_r, _) ->
              if got_r = old_r then
                (* Lines 17-18: index unchanged, so the cell gained a
                   value: whatever it is, the deque is full. *)
                `Full
              else push_right_from t v (Dcas.Backoff.failed b)
        end
        else if M.dcas t.r t.s.(old_r) old_r old_s new_r (Item v) then `Okay
        else push_right_from t v (Dcas.Backoff.failed b)

  let push_right t v = push_right_from t v Dcas.Backoff.idle

  (* Figure 30: left-hand-side pop (mirror image of Figure 2). *)
  let rec pop_left_from t b =
    let old_l = M.get t.l in
    let new_l = (old_l + 1) %% t.length in
    let old_s = M.get t.s.(new_l) in
    match old_s with
    | Null ->
        if
          ((not t.hints) || M.get t.l = old_l)
          && M.dcas t.l t.s.(new_l) old_l old_s old_l old_s
        then `Empty
        else pop_left_from t (Dcas.Backoff.failed b)
    | Item v ->
        if t.hints then begin
          match M.dcas_strong t.l t.s.(new_l) old_l old_s new_l Null with
          | Swapped -> `Value v
          | Saw (got_l, got_s) ->
              if got_l = old_l && got_s == Null then `Empty
              else pop_left_from t (Dcas.Backoff.failed b)
        end
        else if M.dcas t.l t.s.(new_l) old_l old_s new_l Null then `Value v
        else pop_left_from t (Dcas.Backoff.failed b)

  let pop_left t = pop_left_from t Dcas.Backoff.idle

  (* Figure 31: left-hand-side push (mirror image of Figure 3). *)
  let rec push_left_from t v b =
    let old_l = M.get t.l in
    let new_l = (old_l - 1) %% t.length in
    let old_s = M.get t.s.(old_l) in
    match old_s with
    | Item _ ->
        if
          ((not t.hints) || M.get t.l = old_l)
          && M.dcas t.l t.s.(old_l) old_l old_s old_l old_s
        then `Full
        else push_left_from t v (Dcas.Backoff.failed b)
    | Null ->
        if t.hints then begin
          match M.dcas_strong t.l t.s.(old_l) old_l old_s new_l (Item v) with
          | Swapped -> `Okay
          | Saw (got_l, _) ->
              if got_l = old_l then `Full
              else push_left_from t v (Dcas.Backoff.failed b)
        end
        else if M.dcas t.l t.s.(old_l) old_l old_s new_l (Item v) then `Okay
        else push_left_from t v (Dcas.Backoff.failed b)

  let push_left t v = push_left_from t v Dcas.Backoff.idle

  (* --- Quiescent inspection (tests and invariant checks only) --- *)

  (* The contents left-to-right.  Valid only while no operation is in
     flight.  Items occupy the circular segment (l+1 .. r-1). *)
  let unsafe_to_list t =
    let l = M.get t.l in
    (* In the full state every cell is an item; walking from l+1 for at
       most [length] steps terminates in both states. *)
    let rec walk i k acc =
      if k = 0 then List.rev acc
      else
        match M.get t.s.(i) with
        | Item v -> walk ((i + 1) %% t.length) (k - 1) (v :: acc)
        | Null -> List.rev acc
    in
    walk ((l + 1) %% t.length) t.length []

  (* The representation invariant of Figure 18, executable: the indices
     are in range and the non-null cells form one contiguous circular
     segment starting just right of [l] and ending just left of [r];
     the full deque is the special case where the segment covers the
     whole array.  Quiescent use only. *)
  let check_invariant t =
    let l = M.get t.l and r = M.get t.r in
    let n = t.length in
    if l < 0 || l >= n then Error (Printf.sprintf "L=%d out of range [0,%d)" l n)
    else if r < 0 || r >= n then
      Error (Printf.sprintf "R=%d out of range [0,%d)" r n)
    else begin
      let count = ref 0 in
      Array.iter
        (fun c -> match M.get c with Item _ -> incr count | Null -> ())
        t.s;
      let k = !count in
      if r <> (l + k + 1) %% n then
        Error
          (Printf.sprintf "R=%d inconsistent with L=%d and %d items (len %d)" r
             l k n)
      else begin
        (* every item must be inside the segment (l+1 .. l+k) *)
        let first_error = ref None in
        let record e = if !first_error = None then first_error := Some e in
        for off = 1 to n do
          let i = (l + off) %% n in
          let expected_item = off <= k in
          match (M.get t.s.(i), expected_item) with
          | Item _, true | Null, false -> ()
          | Item _, false ->
              record (Printf.sprintf "unexpected item at index %d (off %d)" i off)
          | Null, true -> record (Printf.sprintf "hole at index %d (off %d)" i off)
        done;
        match !first_error with None -> Ok () | Some e -> Error e
      end
    end
end

(* Ready-made instantiations on the four memory models. *)
module Lockfree = Make (Dcas.Mem_lockfree)
module Locked = Make (Dcas.Mem_lock)
module Striped = Make (Dcas.Mem_striped)
module Sequential = Make (Dcas.Mem_seq)
