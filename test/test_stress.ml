(* Multi-domain stress with conservation checking for every
   implementation: unique values in, the popped sets and the remainder
   must exactly partition the pushed set (no loss, no duplication, no
   invention), and the representation invariants must hold at
   quiescence.

   The whole binary is in the slow tier: cases SKIP under a plain
   [dune runtest] and run with DCAS_SLOW_TESTS=1.  Each invocation
   draws a fresh Splitmix seed (printed on failure); set
   DCAS_STRESS_SEED=<n> to replay a failing run deterministically. *)

let stress_seed =
  match Sys.getenv_opt "DCAS_STRESS_SEED" with
  | Some s when String.trim s <> "" -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None -> failwith ("DCAS_STRESS_SEED is not an integer: " ^ s))
  | _ ->
      (* time-derived: different interleavings every CI run, replayable
         via the seed printed on failure *)
      Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e6))
      land 0x3FFF_FFFF

let impls : Test_support.impl list =
  [
    Test_support.checked (module Deque.Array_deque.Lockfree) ~bounded:true;
    Test_support.checked (module Deque.Array_deque.Locked) ~bounded:true;
    Test_support.checked (module Deque.Array_deque.Striped) ~bounded:true;
    Test_support.checked (module Deque.List_deque.Lockfree) ~bounded:false;
    Test_support.checked (module Deque.List_deque.Locked) ~bounded:false;
    Test_support.checked (module Deque.List_deque.Striped) ~bounded:false;
    Test_support.checked (module Deque.List_deque_dummy.Lockfree) ~bounded:false;
    Test_support.of_module (module Baselines.Lock_deque) ~bounded:true;
    Test_support.of_module (module Baselines.Spin_deque) ~bounded:true;
  ]

let stress_case threads iters capacity (impl : Test_support.impl) =
  Test_support.tiered
    (Printf.sprintf "%s: %d threads x %d ops (cap %d)" impl.impl_name threads
       iters capacity)
    `Slow
    (Test_support.with_seed_report ~seed:stress_seed (fun () ->
         Test_support.stress_conservation ~seed:stress_seed impl ~threads
           ~iters ~capacity ()))

(* A tight-capacity run maximizes boundary traffic (full/empty churn);
   a roomy run maximizes successful operations. *)
let tight = List.map (stress_case 4 8_000 4) impls
let roomy = List.map (stress_case 4 8_000 256) impls
let wide = List.map (stress_case 8 3_000 64) impls

(* Two-end dedicated traffic: pushers on the left, poppers on the
   right, checking FIFO-ish flow under the paper's headline usage. *)
let two_end_pipeline (impl : Test_support.impl) =
  Test_support.tiered
    (impl.impl_name ^ ": two-end pipeline")
    `Slow
    (fun () ->
      let h = impl.fresh ~capacity:1024 in
      let produced = Atomic.make 0 and consumed = Atomic.make 0 in
      let n = 20_000 in
      let producer () =
        for i = 1 to n do
          let rec push () =
            match h.push_left i with
            | `Okay -> Atomic.incr produced
            | `Full -> push ()
          in
          push ()
        done
      in
      let consumer () =
        let got = ref 0 in
        while !got < n do
          match h.pop_right () with
          | `Value _ ->
              incr got;
              Atomic.incr consumed
          | `Empty -> Domain.cpu_relax ()
        done
      in
      let p = Domain.spawn producer and c = Domain.spawn consumer in
      Domain.join p;
      Domain.join c;
      Alcotest.(check int) "all values flowed through" n (Atomic.get consumed);
      Alcotest.(check int) "produced all" n (Atomic.get produced))

let pipelines =
  List.map two_end_pipeline
    [
      Test_support.checked (module Deque.Array_deque.Lockfree) ~bounded:true;
      Test_support.checked (module Deque.List_deque.Lockfree) ~bounded:false;
      Test_support.checked (module Deque.List_deque_dummy.Lockfree)
        ~bounded:false;
    ]

let () =
  Alcotest.run "stress"
    [
      ("tight capacity", tight);
      ("roomy capacity", roomy);
      ("eight threads", wide);
      ("two-end pipeline", pipelines);
    ]
