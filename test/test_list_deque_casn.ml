(* Tests for the 3CAS deque extension (experiment E17): sequential
   equivalence on every substrate, exhaustive model checks, stress
   conservation, linearizability of recorded histories — and a
   demonstration that the pop's third (validation) CASN entry is
   load-bearing: the same algorithm with a 2-entry CASN corrupts the
   list under an interleaving the explorer finds. *)

open Spec.Op

let impl_of (module L : Deque.List_deque_casn.ALGORITHM) =
  Test_support.checked (module L) ~bounded:false

let algorithms : (module Deque.List_deque_casn.ALGORITHM) list =
  [
    (module Deque.List_deque_casn.Lockfree);
    (module Deque.List_deque_casn.Locked);
    (module Deque.List_deque_casn.Striped);
    (module Deque.List_deque_casn.Sequential);
  ]

let qcheck_tests =
  List.map
    (fun (module M : Deque.List_deque_casn.ALGORITHM) ->
      QCheck_alcotest.to_alcotest
        (Test_support.qcheck_sequential (impl_of (module M))))
    algorithms

let assert_ok name outcome =
  match outcome.Modelcheck.Explorer.error with
  | None ->
      Alcotest.(check bool) (name ^ " exhaustive") true
        outcome.Modelcheck.Explorer.exhaustive
  | Some f ->
      Alcotest.failf "%s: %s@.%s" name f.Modelcheck.Explorer.reason
        f.Modelcheck.Explorer.pretty_history

let modelcheck_tests =
  let case name prefill threads =
    Alcotest.test_case name `Slow (fun () ->
        assert_ok name
          (Modelcheck.Explorer.explore
             (Modelcheck.Scenario.list_deque_casn ~name ~prefill threads)))
  in
  [
    case "pop/pop 1 node" [ 42 ] [ [ Pop_right ]; [ Pop_left ] ];
    case "pop/pop 2 nodes (validation race)" [ 1; 2 ]
      [ [ Pop_right ]; [ Pop_left ] ];
    case "pop/pop 3 nodes" [ 1; 2; 3 ] [ [ Pop_right ]; [ Pop_left ] ];
    case "push/push empty" [] [ [ Push_right 1 ]; [ Push_left 2 ] ];
    case "pop vs push 1 node" [ 5 ] [ [ Pop_right ]; [ Push_left 6 ] ];
    case "three threads" [ 1; 2 ]
      [ [ Pop_right ]; [ Pop_left ]; [ Push_right 9 ] ];
    case "pop+push vs pop" [ 1; 2 ] [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ];
  ]

let nonblocking_test =
  Alcotest.test_case "lock-freedom stall points" `Slow (fun () ->
      let s =
        Modelcheck.Scenario.list_deque_casn ~name:"nb" ~prefill:[ 1; 2 ]
          [ [ Pop_right; Push_right 3 ]; [ Pop_left ]; [ Push_left 4 ] ]
      in
      match Modelcheck.Explorer.check_nonblocking s ~victim:0 with
      | Ok n -> Alcotest.(check bool) "stall points > 0" true (n > 0)
      | Error j -> Alcotest.failf "blocked at stall point %d" j)

(* --- The validation entry is necessary --- *)

(* The same pop, with the third CASN entry removed.  Under the
   schedule "popLeft splices the left neighbor between popRight's reads
   and its CASN", the two remaining expectations still hold (a
   spliced-out node's outgoing pointers never change), the CASN
   succeeds, and the right sentinel ends up pointing at a node outside
   the chain — caught here as an invariant violation or a
   non-linearizable history. *)
module Broken = struct
  module M = Modelcheck.Mem_model
  module Full = Deque.List_deque_casn.Make (M)

  type 'a cell = SentL | SentR | Item of 'a

  type 'a node = {
    left : 'a node_ref M.loc;
    right : 'a node_ref M.loc;
    value : 'a cell;
  }

  and 'a node_ref = Nil | Node of 'a node

  type 'a t = { sl : 'a node; sr : 'a node }

  let node_ref_equal a b =
    match (a, b) with
    | Nil, Nil -> true
    | Node x, Node y -> x == y
    | (Nil | Node _), _ -> false

  let new_node value =
    {
      left = M.make ~equal:node_ref_equal Nil;
      right = M.make ~equal:node_ref_equal Nil;
      value;
    }

  let node_of = function Node n -> n | Nil -> assert false

  let make () =
    let sl = new_node SentL and sr = new_node SentR in
    M.set_private sl.right (Node sr);
    M.set_private sr.left (Node sl);
    { sl; sr }

  let pop_right t =
    let rec loop () =
      let old_l = M.get t.sr.left in
      let target = node_of old_l in
      match target.value with
      | SentL -> `Empty
      | SentR -> assert false
      | Item v ->
          let ll = M.get target.left in
          if
            M.casn
              [
                M.Cass (t.sr.left, old_l, ll);
                M.Cass ((node_of ll).right, old_l, Node t.sr);
                (* validation entry deliberately OMITTED *)
              ]
          then `Value v
          else loop ()
    in
    loop ()

  let pop_left t =
    let rec loop () =
      let old_r = M.get t.sl.right in
      let target = node_of old_r in
      match target.value with
      | SentR -> `Empty
      | SentL -> assert false
      | Item v ->
          let rr = M.get target.right in
          if
            M.casn
              [
                M.Cass (t.sl.right, old_r, rr);
                M.Cass ((node_of rr).left, old_r, Node t.sl);
              ]
          then `Value v
          else loop ()
    in
    loop ()

  let push_right t v =
    let nn = new_node (Item v) in
    let rec loop () =
      let old_l = M.get t.sr.left in
      let target = node_of old_l in
      M.set_private nn.right (Node t.sr);
      M.set_private nn.left old_l;
      if
        M.casn
          [
            M.Cass (t.sr.left, old_l, Node nn);
            M.Cass (target.right, Node t.sr, Node nn);
          ]
      then `Okay
      else loop ()
    in
    loop ()

  (* minimal invariant: SR's inward neighbor must be reachable from SL *)
  let check_invariant t =
    let max_nodes = 100 in
    let rec reach node n acc =
      if n > max_nodes then acc
      else if node == t.sr then t.sr :: acc
      else reach (node_of (M.get node.right)) (n + 1) (node :: acc)
    in
    let chain = reach t.sl 0 [] in
    let sr_l = node_of (M.get t.sr.left) in
    if List.memq sr_l chain then Ok ()
    else Error "SR->L points outside the chain"

  let scenario =
    Modelcheck.Scenario.deque ~name:"broken-2cas" ~prefill:[ 1; 2 ]
      [ [ Spec.Op.Pop_right; Spec.Op.Push_right 3 ]; [ Spec.Op.Pop_left ] ]
      (fun () ->
        let d = make () in
        {
          Deque.Deque_intf.name = "broken-2cas";
          push_right = push_right d;
          push_left = (fun _ -> `Full (* unused here *));
          pop_right = (fun () -> pop_right d);
          pop_left = (fun () -> pop_left d);
          contents = None;
          invariant = Some (fun () -> check_invariant d);
        })
end

let test_validation_entry_necessary () =
  (* the broken 2-entry variant must fail... *)
  let broken = Modelcheck.Explorer.explore Broken.scenario in
  (match broken.Modelcheck.Explorer.error with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "expected the 2-entry pop to corrupt the list under some schedule");
  (* ...while the full 3-entry algorithm passes the same scenario *)
  let sound =
    Modelcheck.Scenario.list_deque_casn ~name:"sound" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ]
  in
  match (Modelcheck.Explorer.explore sound).Modelcheck.Explorer.error with
  | None -> ()
  | Some f ->
      Alcotest.failf "3-entry algorithm failed: %s" f.Modelcheck.Explorer.reason

(* --- Stress and recorded histories --- *)

let stress_test =
  Alcotest.test_case "4-thread conservation" `Slow (fun () ->
      Test_support.stress_conservation
        (impl_of (module Deque.List_deque_casn.Lockfree))
        ~threads:4 ~iters:8_000 ~capacity:64 ())

let lin_test =
  Alcotest.test_case "recorded histories linearizable" `Slow (fun () ->
      Test_support.check_linearizable_rounds
        (impl_of (module Deque.List_deque_casn.Lockfree))
        ~threads:3 ~ops_per_thread:8 ~capacity:4 ~rounds:40)

let () =
  Alcotest.run "list_deque_casn"
    [
      ("oracle equivalence", qcheck_tests);
      ("model checks", nonblocking_test :: modelcheck_tests);
      ( "validation entry",
        [
          Alcotest.test_case "2-entry CASN is unsound (3rd entry needed)"
            `Slow test_validation_entry_necessary;
        ] );
      ("concurrency", [ stress_test; lin_test ]);
    ]
