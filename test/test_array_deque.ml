(* Tests for the array-based deque of Section 3 — experiment E1's
   correctness side: boundary cases (empty/full), index wraparound and
   L/R crossing (Figures 4, 7, 8), the hints ablation, and sequential
   equivalence with the oracle on every memory model. *)

open Spec

let impl_of ?(hints = true) (module A : Deque.Array_deque.ALGORITHM) :
    Test_support.impl =
  {
    impl_name = A.name ^ (if hints then "" else "(no-hints)");
    bounded = true;
    fresh =
      (fun ~capacity ->
        let d = A.make ~hints ~length:capacity () in
        Test_support.handle_of_ops
          ~push_right:(fun v -> A.push_right d v)
          ~push_left:(fun v -> A.push_left d v)
          ~pop_right:(fun () -> A.pop_right d)
          ~pop_left:(fun () -> A.pop_left d)
          ~to_list:(Some (fun () -> A.unsafe_to_list d))
          ~invariant:(Some (fun () -> A.check_invariant d)));
  }

let algorithms : (module Deque.Array_deque.ALGORITHM) list =
  [
    (module Deque.Array_deque.Lockfree);
    (module Deque.Array_deque.Locked);
    (module Deque.Array_deque.Striped);
    (module Deque.Array_deque.Sequential);
  ]

(* Work with the Sequential instantiation for the deterministic
   scenario tests; the algorithm text is identical on every model. *)
module A = Deque.Array_deque.Sequential

let check_inv d =
  match A.check_invariant d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

(* E1: fill to full from the right, drain from the left (FIFO through
   the whole capacity, forcing wraparound of both indices). *)
let test_fill_right_drain_left () =
  let n = 7 in
  let d = A.make ~length:n () in
  for v = 1 to n do
    Alcotest.(check bool) "push okay" true (A.push_right d v = `Okay);
    check_inv d
  done;
  Alcotest.(check bool) "full" true (A.push_right d 99 = `Full);
  Alcotest.(check bool) "full from left too" true (A.push_left d 99 = `Full);
  for v = 1 to n do
    match A.pop_left d with
    | `Value got -> Alcotest.(check int) "FIFO order" v got
    | `Empty -> Alcotest.fail "unexpected empty"
  done;
  Alcotest.(check bool) "empty" true (A.pop_left d = `Empty);
  Alcotest.(check bool) "empty right" true (A.pop_right d = `Empty);
  check_inv d

(* Figure 8's sequence: fill to almost-full, then a left push and a
   right push produce the full state with L and R crossed. *)
let test_figure8_crossing () =
  let n = 6 in
  let d = A.make ~length:n () in
  (* rotate so the segment wraps: push and pop a few times first *)
  for v = 1 to 4 do
    ignore (A.push_right d v)
  done;
  for _ = 1 to 3 do
    ignore (A.pop_left d)
  done;
  (* deque now holds [4] somewhere in the middle *)
  for v = 10 to 12 do
    Alcotest.(check bool) "refill" true (A.push_right d v = `Okay)
  done;
  check_inv d;
  Alcotest.(check bool) "left push into last-but-one" true
    (A.push_left d 100 = `Okay);
  Alcotest.(check bool) "right push fills" true (A.push_right d 200 = `Okay);
  Alcotest.(check bool) "now full" true (A.push_right d 0 = `Full);
  Alcotest.(check bool) "now full (left)" true (A.push_left d 0 = `Full);
  check_inv d;
  Alcotest.(check (list int)) "contents ordered"
    [ 100; 4; 10; 11; 12; 200 ]
    (A.unsafe_to_list d)

(* Many wraparound cycles keep the invariant and FIFO order. *)
let test_wraparound_cycles () =
  let n = 5 in
  let d = A.make ~length:n () in
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 1000 do
    (match A.push_right d !next_in with
    | `Okay -> incr next_in
    | `Full -> ());
    match A.pop_left d with
    | `Value v ->
        Alcotest.(check int) "FIFO across wraps" !next_out v;
        incr next_out
    | `Empty -> ()
  done;
  check_inv d

(* LIFO usage from each end. *)
let test_lifo_both_ends () =
  let d = A.make ~length:8 () in
  List.iter (fun v -> ignore (A.push_right d v)) [ 1; 2; 3 ];
  Alcotest.(check bool) "pop 3" true (A.pop_right d = `Value 3);
  Alcotest.(check bool) "pop 2" true (A.pop_right d = `Value 2);
  List.iter (fun v -> ignore (A.push_left d v)) [ 10; 20 ];
  Alcotest.(check bool) "pop 20" true (A.pop_left d = `Value 20);
  Alcotest.(check bool) "pop 10" true (A.pop_left d = `Value 10);
  Alcotest.(check bool) "pop 1" true (A.pop_left d = `Value 1);
  Alcotest.(check bool) "empty" true (A.pop_left d = `Empty)

(* A deque of length 1 behaves like a single slot. *)
let test_length_one () =
  let d = A.make ~length:1 () in
  Alcotest.(check bool) "empty" true (A.pop_right d = `Empty);
  Alcotest.(check bool) "push" true (A.push_right d 5 = `Okay);
  Alcotest.(check bool) "full" true (A.push_left d 6 = `Full);
  Alcotest.(check bool) "pop left gets it" true (A.pop_left d = `Value 5);
  Alcotest.(check bool) "empty again" true (A.pop_left d = `Empty);
  check_inv d

let test_invalid_length () =
  Alcotest.check_raises "length 0"
    (Invalid_argument "Array_deque.make: length must be >= 1") (fun () ->
      ignore (A.make ~length:0 ()))

(* The no-hints variant (weak DCAS only) has identical sequential
   semantics. *)
let test_hints_equivalence () =
  let ops =
    let rng = Dcas.Splitmix.create ~seed:99 in
    List.init 500 (fun i ->
        match Dcas.Splitmix.int rng ~bound:4 with
        | 0 -> Op.Push_right i
        | 1 -> Op.Push_left i
        | 2 -> Op.Pop_right
        | _ -> Op.Pop_left)
  in
  let run hints =
    let d = A.make ~hints ~length:5 () in
    List.map
      (fun op ->
        match op with
        | Op.Push_right v -> Deque.Deque_intf.res_of_push (A.push_right d v)
        | Op.Push_left v -> Deque.Deque_intf.res_of_push (A.push_left d v)
        | Op.Pop_right -> Deque.Deque_intf.res_of_pop (A.pop_right d)
        | Op.Pop_left -> Deque.Deque_intf.res_of_pop (A.pop_left d))
      ops
  in
  Alcotest.(check bool) "hint and no-hint runs agree" true (run true = run false)

(* --- batched entry points (push_many/pop_many) --- *)

(* The batched ops promise exactly the semantics of folding the single
   ops — same accepted prefix, same popped values, same final state —
   with the whole batch committed at one linearization point.  The
   reference below is that fold, run on a second instance. *)
let ref_push_many push d vs =
  let rec go n = function
    | [] -> n
    | v :: tl -> ( match push d v with `Okay -> go (n + 1) tl | `Full -> n)
  in
  go 0 vs

let ref_pop_many pop d k =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match pop d with
      | `Value v -> go (v :: acc) (k - 1)
      | `Empty -> List.rev acc
  in
  go [] k

let test_batched_basics () =
  let d = A.make ~length:5 () in
  Alcotest.(check int) "empty batch accepted trivially" 0
    (A.push_many_right d []);
  Alcotest.(check (list int)) "pop 0 is empty" [] (A.pop_many_left d 0);
  Alcotest.(check int) "whole batch fits" 3 (A.push_many_right d [ 1; 2; 3 ]);
  check_inv d;
  Alcotest.(check int) "prefix accepted at full" 2
    (A.push_many_right d [ 4; 5; 6 ]);
  check_inv d;
  Alcotest.(check int) "full: nothing accepted" 0 (A.push_many_right d [ 7 ]);
  Alcotest.(check int) "full from the left too" 0 (A.push_many_left d [ 7 ]);
  Alcotest.(check (list int)) "pop order is left-to-right" [ 1; 2 ]
    (A.pop_many_left d 2);
  check_inv d;
  Alcotest.(check (list int)) "right pops in pop order" [ 5; 4 ]
    (A.pop_many_right d 2);
  Alcotest.(check (list int)) "truncated at empty" [ 3 ] (A.pop_many_left d 9);
  Alcotest.(check (list int)) "empty deque pops nothing" []
    (A.pop_many_left d 1);
  check_inv d

let test_batched_left_mirror () =
  let d = A.make ~length:4 () in
  Alcotest.(check int) "left batch accepted" 3 (A.push_many_left d [ 1; 2; 3 ]);
  check_inv d;
  (* successive left pushes stack leftwards: contents are 3,2,1 *)
  Alcotest.(check (list int)) "contents" [ 3; 2; 1 ] (A.unsafe_to_list d);
  Alcotest.(check (list int)) "right end sees 1 then 2" [ 1; 2 ]
    (A.pop_many_right d 2);
  check_inv d

let test_batched_length_one () =
  let d = A.make ~length:1 () in
  Alcotest.(check int) "one of two fits" 1 (A.push_many_right d [ 8; 9 ]);
  Alcotest.(check int) "full" 0 (A.push_many_left d [ 1 ]);
  Alcotest.(check (list int)) "drain" [ 8 ] (A.pop_many_left d 5);
  Alcotest.(check (list int)) "empty" [] (A.pop_many_right d 1);
  check_inv d

let test_batched_wraparound () =
  let d = A.make ~length:5 () in
  (* rotate the occupied segment so batches cross the array seam *)
  for cycle = 1 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "cycle %d push" cycle)
      3
      (A.push_many_right d [ cycle; cycle + 100; cycle + 200 ]);
    check_inv d;
    Alcotest.(check (list int))
      (Printf.sprintf "cycle %d pop" cycle)
      [ cycle; cycle + 100; cycle + 200 ]
      (A.pop_many_left d 3);
    check_inv d
  done

(* qcheck: a random mixed sequence of batched ops agrees step-for-step
   with the fold of single ops on a second instance, and the run
   conserves the multiset of values: prefill + accepted pushes =
   popped + final contents. *)
let qcheck_batched_matches_fold =
  let gen =
    QCheck2.Gen.(
      pair (1 -- 6)
        (list_size (1 -- 40)
           (oneof
              [
                map (fun vs -> `Push_r vs) (list_size (0 -- 7) (int_bound 99));
                map (fun vs -> `Push_l vs) (list_size (0 -- 7) (int_bound 99));
                map (fun k -> `Pop_r k) (0 -- 7);
                map (fun k -> `Pop_l k) (0 -- 7);
              ])))
  in
  let print (cap, ops) =
    let vs l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "cap=%d ops=[%s]" cap
      (String.concat ";"
         (List.map
            (function
              | `Push_r l -> Printf.sprintf "pushR[%s]" (vs l)
              | `Push_l l -> Printf.sprintf "pushL[%s]" (vs l)
              | `Pop_r k -> Printf.sprintf "popR:%d" k
              | `Pop_l k -> Printf.sprintf "popL:%d" k)
            ops))
  in
  QCheck2.Test.make ~name:"batched ops agree with fold of singles + conserve"
    ~count:300 ~print gen (fun (cap, ops) ->
      let d = A.make ~length:cap () in
      let r = A.make ~length:cap () in
      let pushed = ref [] and popped = ref [] in
      let take n l = List.filteri (fun i _ -> i < n) l in
      let step_ok =
        List.for_all
          (fun op ->
            let ok =
              match op with
              | `Push_r vs ->
                  let n = A.push_many_right d vs in
                  pushed := take n vs @ !pushed;
                  n = ref_push_many A.push_right r vs
              | `Push_l vs ->
                  let n = A.push_many_left d vs in
                  pushed := take n vs @ !pushed;
                  n = ref_push_many A.push_left r vs
              | `Pop_r k ->
                  let got = A.pop_many_right d k in
                  popped := got @ !popped;
                  got = ref_pop_many A.pop_right r k
              | `Pop_l k ->
                  let got = A.pop_many_left d k in
                  popped := got @ !popped;
                  got = ref_pop_many A.pop_left r k
            in
            ok
            && A.unsafe_to_list d = A.unsafe_to_list r
            && A.check_invariant d = Ok ())
          ops
      in
      let sorted l = List.sort compare l in
      step_ok
      && sorted !pushed = sorted (!popped @ A.unsafe_to_list d))

(* The batched ops on the production (lock-free) instantiation under
   real memory: same fold-of-singles agreement, exercising the Dcas2
   2-entry specialization (k=1) and wider CASN descriptors alike. *)
let test_batched_lockfree_agrees () =
  let module L = Deque.Array_deque.Lockfree in
  let d = L.make ~length:5 () in
  let r = A.make ~length:5 () in
  let rng = Dcas.Splitmix.create ~seed:4242 in
  for i = 1 to 400 do
    let k = Dcas.Splitmix.int rng ~bound:4 in
    let vs = List.init k (fun j -> (10 * i) + j) in
    let agree =
      match Dcas.Splitmix.int rng ~bound:4 with
      | 0 -> L.push_many_right d vs = ref_push_many A.push_right r vs
      | 1 -> L.push_many_left d vs = ref_push_many A.push_left r vs
      | 2 -> L.pop_many_right d k = ref_pop_many A.pop_right r k
      | _ -> L.pop_many_left d k = ref_pop_many A.pop_left r k
    in
    Alcotest.(check bool) (Printf.sprintf "step %d agrees" i) true agree;
    Alcotest.(check (list int))
      (Printf.sprintf "step %d state" i)
      (A.unsafe_to_list r) (L.unsafe_to_list d)
  done

let qcheck_tests =
  List.concat_map
    (fun (module M : Deque.Array_deque.ALGORITHM) ->
      [
        QCheck_alcotest.to_alcotest
          (Test_support.qcheck_sequential (impl_of (module M)));
        QCheck_alcotest.to_alcotest
          (Test_support.qcheck_sequential ~count:100
             (impl_of ~hints:false (module M)));
      ])
    algorithms

(* capacity-1 qcheck: the degenerate boundary case *)
let qcheck_capacity_one =
  QCheck_alcotest.to_alcotest
    (Test_support.qcheck_sequential ~capacity:1 ~count:100
       (impl_of (module Deque.Array_deque.Sequential)))

let () =
  Alcotest.run "array_deque"
    [
      ( "boundaries (E1)",
        [
          Alcotest.test_case "fill right / drain left" `Quick
            test_fill_right_drain_left;
          Alcotest.test_case "figure 8 crossing" `Quick test_figure8_crossing;
          Alcotest.test_case "wraparound cycles" `Quick test_wraparound_cycles;
          Alcotest.test_case "lifo both ends" `Quick test_lifo_both_ends;
          Alcotest.test_case "length one" `Quick test_length_one;
          Alcotest.test_case "invalid length" `Quick test_invalid_length;
          Alcotest.test_case "hints ablation equivalence" `Quick
            test_hints_equivalence;
        ] );
      ( "batched ops",
        [
          Alcotest.test_case "basics and boundaries" `Quick test_batched_basics;
          Alcotest.test_case "left mirror" `Quick test_batched_left_mirror;
          Alcotest.test_case "length one" `Quick test_batched_length_one;
          Alcotest.test_case "wraparound" `Quick test_batched_wraparound;
          Alcotest.test_case "lock-free instantiation agrees" `Quick
            test_batched_lockfree_agrees;
          QCheck_alcotest.to_alcotest qcheck_batched_matches_fold;
        ] );
      ("oracle equivalence", qcheck_capacity_one :: qcheck_tests);
    ]
