(* Tests for the linked-list deque of Section 4 — experiment E3's
   correctness side: the four empty-deque configurations of Figure 9,
   logical vs physical deletion, the allocator (footnote 3) semantics,
   the Figures 24-25 representation invariant, and sequential
   equivalence with the oracle on every memory model. *)

let impl_of (module L : Deque.List_deque.ALGORITHM) =
  Test_support.checked (module L) ~bounded:false

let algorithms : (module Deque.List_deque.ALGORITHM) list =
  [
    (module Deque.List_deque.Lockfree);
    (module Deque.List_deque.Locked);
    (module Deque.List_deque.Striped);
    (module Deque.List_deque.Sequential);
  ]

module L = Deque.List_deque.Sequential

let check_inv d =
  match L.check_invariant d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

(* Figure 9: after popping, the deque passes through the
   one-deleted-cell and two-deleted-cell empty configurations; every
   subsequent operation still behaves correctly and the invariant
   holds throughout. *)
let test_figure9_empty_states () =
  let d = L.make () in
  check_inv d;
  (* state: plain empty (top of Figure 9) *)
  Alcotest.(check bool) "popRight empty" true (L.pop_right d = `Empty);
  Alcotest.(check bool) "popLeft empty" true (L.pop_left d = `Empty);
  (* one element, popped from the right: right-deleted empty state *)
  ignore (L.push_right d 1);
  Alcotest.(check bool) "pop 1" true (L.pop_right d = `Value 1);
  check_inv d;
  Alcotest.(check bool) "empty despite pending deletion" true
    (L.pop_right d = `Empty);
  Alcotest.(check bool) "empty from the left too" true (L.pop_left d = `Empty);
  check_inv d;
  (* one element, popped from the left: left-deleted empty state *)
  ignore (L.push_left d 2);
  Alcotest.(check bool) "pop 2" true (L.pop_left d = `Value 2);
  check_inv d;
  Alcotest.(check bool) "empty" true (L.pop_left d = `Empty);
  (* two elements, one popped from each side: two deleted cells *)
  ignore (L.push_right d 3);
  ignore (L.push_right d 4);
  Alcotest.(check bool) "pop right" true (L.pop_right d = `Value 4);
  Alcotest.(check bool) "pop left" true (L.pop_left d = `Value 3);
  check_inv d;
  Alcotest.(check bool) "empty with two pending" true (L.pop_right d = `Empty);
  Alcotest.(check bool) "empty with two pending (left)" true
    (L.pop_left d = `Empty);
  check_inv d;
  (* pushes on both sides complete the pending deletions *)
  Alcotest.(check bool) "push right after deletions" true
    (L.push_right d 5 = `Okay);
  Alcotest.(check bool) "push left after deletions" true
    (L.push_left d 6 = `Okay);
  check_inv d;
  Alcotest.(check (list int)) "contents" [ 6; 5 ] (L.unsafe_to_list d)

(* Explicit delete procedures are idempotent and safe when nothing is
   pending. *)
let test_delete_idempotent () =
  let d = L.make () in
  L.delete_right d;
  L.delete_left d;
  check_inv d;
  ignore (L.push_right d 1);
  ignore (L.pop_right d);
  (* deletion pending on the right *)
  L.delete_right d;
  L.delete_right d;
  (* run twice: second call must be a no-op *)
  check_inv d;
  Alcotest.(check bool) "still works" true (L.push_right d 2 = `Okay);
  Alcotest.(check bool) "pop" true (L.pop_left d = `Value 2)

(* Figure 16's left-wins / right-wins outcomes, driven sequentially:
   after both ends are logically deleted, completing the deletions in
   either order leaves a consistent empty deque. *)
let test_figure16_orders () =
  let exercise first second =
    let d = L.make () in
    ignore (L.push_right d 1);
    ignore (L.push_right d 2);
    Alcotest.(check bool) "pop r" true (L.pop_right d = `Value 2);
    Alcotest.(check bool) "pop l" true (L.pop_left d = `Value 1);
    first d;
    check_inv d;
    second d;
    check_inv d;
    Alcotest.(check bool) "empty" true (L.pop_right d = `Empty);
    Alcotest.(check bool) "push works" true (L.push_left d 9 = `Okay);
    Alcotest.(check (list int)) "contents" [ 9 ] (L.unsafe_to_list d)
  in
  exercise L.delete_right L.delete_left;
  exercise L.delete_left L.delete_right

(* Footnote 3: pushes return full exactly when allocation fails, and
   physical deletion releases memory. *)
let test_allocator_semantics () =
  let alloc = Deque.Alloc.bounded 2 in
  let d = L.make ~alloc () in
  Alcotest.(check bool) "push 1" true (L.push_right d 1 = `Okay);
  Alcotest.(check bool) "push 2" true (L.push_left d 2 = `Okay);
  Alcotest.(check bool) "push 3 fails (budget)" true (L.push_right d 3 = `Full);
  Alcotest.(check (option int)) "no credits" (Some 0)
    (Deque.Alloc.available alloc);
  (* logical deletion alone frees nothing *)
  Alcotest.(check bool) "pop" true (L.pop_right d = `Value 1);
  Alcotest.(check bool) "still full before physical deletion" true
    (L.push_right d 4 = `Full);
  (* the delete inside the next operation frees the node; afterwards a
     push succeeds again *)
  L.delete_right d;
  Alcotest.(check (option int)) "credit back" (Some 1)
    (Deque.Alloc.available alloc);
  Alcotest.(check bool) "push succeeds after reclaim" true
    (L.push_right d 5 = `Okay);
  check_inv d;
  Alcotest.(check (list int)) "contents" [ 2; 5 ] (L.unsafe_to_list d)

(* Mixed random single-threaded churn keeps the invariant. *)
let test_churn_invariant () =
  let d = L.make () in
  let rng = Dcas.Splitmix.create ~seed:7 in
  for i = 1 to 2000 do
    (match Dcas.Splitmix.int rng ~bound:4 with
    | 0 -> ignore (L.push_right d i)
    | 1 -> ignore (L.push_left d i)
    | 2 -> ignore (L.pop_right d)
    | _ -> ignore (L.pop_left d));
    if i mod 50 = 0 then check_inv d
  done;
  check_inv d

let qcheck_tests =
  List.map
    (fun (module M : Deque.List_deque.ALGORITHM) ->
      QCheck_alcotest.to_alcotest
        (Test_support.qcheck_sequential (impl_of (module M))))
    algorithms

(* --- Node recycling (the E16 probe of the GC assumption) --- *)

(* Sequential semantics are unchanged with recycling on. *)
let recycle_impl : Test_support.impl =
  let module R = Deque.List_deque.Sequential in
  let module W = Deque.Deque_intf.Wrap_checked (R) in
  {
    impl_name = R.name ^ "(recycle)";
    bounded = false;
    fresh = (fun ~capacity:_ -> W.handle (R.make ~recycle:true ()));
  }

(* Nodes really are reused: with a bounded allocator and recycling, a
   push after pop+delete succeeds without any new credit. *)
let test_recycling_reuses_nodes () =
  let module R = Deque.List_deque.Sequential in
  let alloc = Deque.Alloc.bounded 1 in
  let d = R.make ~alloc ~recycle:true () in
  for round = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "push round %d" round)
      true
      (R.push_right d round = `Okay);
    Alcotest.(check bool) "budget exhausted" true (R.push_right d 0 = `Full);
    Alcotest.(check bool) "pop" true (R.pop_right d = `Value round);
    R.delete_right d
  done

(* Exhaustive: immediate reuse with repeated values yields no
   observable ABA (the negative result of experiment E16). *)
let test_recycling_model_checked () =
  let open Spec.Op in
  let check name scenario =
    match (Modelcheck.Explorer.explore scenario).Modelcheck.Explorer.error with
    | None -> ()
    | Some f -> Alcotest.failf "%s: %s" name f.Modelcheck.Explorer.reason
  in
  check "reuse vs popL"
    (Modelcheck.Scenario.list_deque ~recycle:true ~name:"m1" ~prefill:[ 2 ]
       [ [ Pop_right; Push_right 2 ]; [ Pop_left ] ]);
  check "reuse across pending deletion"
    (Modelcheck.Scenario.list_deque ~recycle:true ~name:"m2" ~prefill:[ 1; 2 ]
       ~setup:[ Pop_right ]
       [ [ Push_right 2 ]; [ Pop_right ] ])

(* A single-domain push_right + pop_right pair on the lock-free deque
   allocates the algorithm's words and little else: the node with its
   three locations, the splice and deletion pointers, and three DCASes
   (splice, logical pop, physical delete by the next push).  Retry
   closures, backoff records and rebuilt sentinel pointers must stay
   off the path. *)
let test_allocation_budget () =
  let module L = Deque.List_deque.Lockfree in
  let d = L.make () in
  let delta n =
    let before = Gc.minor_words () in
    for i = 1 to n do
      if L.push_right d i <> `Okay then Alcotest.fail "push refused";
      match L.pop_right d with
      | `Value _ -> ()
      | `Empty -> Alcotest.fail "pop found nothing"
    done;
    Gc.minor_words () -. before
  in
  ignore (delta 10);
  let per_pair = (delta 10_010 -. delta 10) /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per pair <= 130" per_pair)
    true (per_pair <= 130.)

(* The two-null branch of a physical delete (Figure 16) DCASes both
   sentinels together.  Without checking that the opposite sentinel
   still names the null neighbour it read, it can unlink live nodes:
   here t1's popLeft reads SL.R = <N1,del>, N1.R = N2 and N2's null;
   meanwhile t0 splices N2 out, pushes 3 and 4 after N1 and pops 4; t1
   then reads SR.L = <N4,del>, and its DCAS unlinked the live N3.  The
   token is the explorer's shrunk counterexample, with each DCAS one
   atomic step. *)
let two_null_token =
  "dqf1/pr:2,qr,pr:3,pr:4,qr|ql,ql,ql/1.0.0.0.0.0.0.0.1.0.0.1.0.1.1.0.1.1.1.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1"

let test_two_null_replay () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"two-null" ~prefill:[ 1 ] []
  in
  match Modelcheck.Fuzz.replay scenario ~token:two_null_token with
  | Error e -> Alcotest.fail e
  | Ok (_, Some f) ->
      Alcotest.failf "replay failed: %s" f.Modelcheck.Fuzz.reason
  | Ok (_, None) -> ()

(* The same race on real domains: an owner on the right end, a thief
   popping the left end in bursts of 8 (see
   {!Test_support.conservation_failures}). *)
let test_owner_thief (module L : Deque.List_deque.ALGORITHM) () =
  match
    Test_support.conservation_failures (impl_of (module L)) ~capacity:4096
      ~trials:60 ~duration:0.1 ~main:Test_support.owner
      ~peer:Test_support.thief
  with
  | [] -> ()
  | first :: _ as failed ->
      Alcotest.failf "%s: %d of 60 trials failed; first: %s" L.name
        (List.length failed) first

let () =
  Alcotest.run "list_deque"
    [
      ( "empty states (E3)",
        [
          Alcotest.test_case "figure 9 configurations" `Quick
            test_figure9_empty_states;
          Alcotest.test_case "delete idempotent" `Quick test_delete_idempotent;
          Alcotest.test_case "figure 16 completion orders" `Quick
            test_figure16_orders;
        ] );
      ( "allocator (footnote 3)",
        [ Alcotest.test_case "bounded budget" `Quick test_allocator_semantics ] );
      ( "invariant",
        [ Alcotest.test_case "random churn" `Quick test_churn_invariant ] );
      ( "allocation",
        [
          Alcotest.test_case "push+pop pair budget" `Quick
            test_allocation_budget;
        ] );
      ( "recycling (E16)",
        [
          QCheck_alcotest.to_alcotest
            (Test_support.qcheck_sequential ~count:150 recycle_impl);
          Alcotest.test_case "nodes actually reused" `Quick
            test_recycling_reuses_nodes;
          Alcotest.test_case "no ABA under exhaustive reuse" `Slow
            test_recycling_model_checked;
        ] );
      ( "two-null adjacency",
        [
          Alcotest.test_case "replay: no live node unlinked" `Quick
            test_two_null_replay;
          Test_support.tiered "owner/thief conserves (locked)" `Slow
            (test_owner_thief (module Deque.List_deque.Locked));
          Test_support.tiered "owner/thief conserves (lock-free)" `Slow
            (test_owner_thief (module Deque.List_deque.Lockfree));
        ] );
      ("oracle equivalence", qcheck_tests);
    ]
