(* Tests for the array-based deque of Section 3 — experiment E1's
   correctness side: boundary cases (empty/full), index wraparound and
   L/R crossing (Figures 4, 7, 8), the hints ablation, and sequential
   equivalence with the oracle on every memory model. *)

open Spec

let impl_of ?(hints = true) (module A : Deque.Array_deque.ALGORITHM) :
    Test_support.impl =
  let module W = Deque.Deque_intf.Wrap_checked (A) in
  {
    impl_name = A.name ^ (if hints then "" else "(no-hints)");
    bounded = true;
    fresh = (fun ~capacity -> W.handle (A.make ~hints ~length:capacity ()));
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
    let module W = Deque.Deque_intf.Wrap (A) in
    List.map (Deque.Deque_intf.apply (W.handle (A.make ~hints ~length:5 ()))) ops
  in
  Alcotest.(check bool) "hint and no-hint runs agree" true (run true = run false)

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

(* Two domains doing uniform push and pop on both ends of one
   lock-free deque, so each end has two writers.  Before [step]
   re-read the descriptor's status ahead of its install CAS, a helper
   could install a descriptor already decided and released over a
   later write that restored its expected value, rolling an index or a
   cell back: trials ended with e.g. "R=519 inconsistent with L=65494
   and 559 items". *)
let test_both_ends () =
  let trials = 60 in
  match
    Test_support.conservation_failures
      (impl_of (module Deque.Array_deque.Lockfree))
      ~capacity:65_536 ~trials ~duration:0.5 ~main:Test_support.both_ends
      ~peer:Test_support.both_ends
  with
  | [] -> ()
  | first :: _ as failed ->
      Alcotest.failf "%d of %d trials failed; first: %s" (List.length failed)
        trials first

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
      ("oracle equivalence", qcheck_capacity_one :: qcheck_tests);
      (* slow tier: SKIP unless DCAS_SLOW_TESTS=1 *)
      ( "two domains",
        [
          Test_support.tiered "lockfree: both ends conserve" `Slow
            test_both_ends;
        ] );
    ]
