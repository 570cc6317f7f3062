(* The experiment tables E1-E17 (see DESIGN.md section 5 for the map
   from paper artifact to experiment).  Each experiment prints one or
   more tables; EXPERIMENTS.md quotes and discusses the output.  The
   [quick] flag shrinks durations and sample counts for smoke runs. *)

open Bench_support

let dur ~quick base = if quick then base /. 4. else base
let cnt ~quick base = if quick then base / 4 else base

(* Implementations used across experiments. *)
let array_lockfree = of_array (module Deque.Array_deque.Lockfree) ()
let array_nohints = of_array (module Deque.Array_deque.Lockfree) ~hints:false ()
let array_locked = of_array (module Deque.Array_deque.Locked) ()
let array_striped = of_array (module Deque.Array_deque.Striped) ()
let list_lockfree = of_list (module Deque.List_deque.Lockfree)
let list_locked = of_list (module Deque.List_deque.Locked)
let list_striped = of_list (module Deque.List_deque.Striped)
let dummy_lockfree = of_list_dummy (module Deque.List_deque_dummy.Lockfree)
let lock_deque = of_general (module Baselines.Lock_deque)
let spin_deque = of_general (module Baselines.Spin_deque)
let greenwald1 = of_greenwald_v1 (module Baselines.Greenwald_v1.Lockfree)

let fmt_tp = Harness.Table.ops_per_sec
let fmt_ns = Harness.Table.ns

(* A Dcas.Histogram quantile: nan for an empty histogram, infinity when
   the rank landed past the histogram's range. *)
let fmt_q v =
  if Float.is_nan v then "-" else if v = infinity then "overflow" else fmt_ns v

(* ------------------------------------------------------------------ *)
(* E1: array boundary behaviour (Figures 4, 7, 8)                      *)
(* ------------------------------------------------------------------ *)

let e1 ~quick =
  header "E1  array deque: boundary and wraparound behaviour (Figs 4/7/8)";
  let ops_count = cnt ~quick 200_000 in
  let rows =
    List.map
      (fun length ->
        let module A = Deque.Array_deque.Lockfree in
        let d = A.make ~length () in
        let oracle = ref (Spec.Seq_deque.make ~capacity:length ()) in
        let rng = Dcas.Splitmix.create ~seed:(length * 31) in
        let okay = ref 0 and full = ref 0 and got = ref 0 and empty = ref 0 in
        let agree = ref true in
        for i = 1 to ops_count do
          let op =
            match Dcas.Splitmix.int rng ~bound:4 with
            | 0 -> Spec.Op.Push_right i
            | 1 -> Spec.Op.Push_left i
            | 2 -> Spec.Op.Pop_right
            | _ -> Spec.Op.Pop_left
          in
          let res =
            match op with
            | Spec.Op.Push_right v ->
                Deque.Deque_intf.res_of_push (A.push_right d v)
            | Spec.Op.Push_left v ->
                Deque.Deque_intf.res_of_push (A.push_left d v)
            | Spec.Op.Pop_right -> Deque.Deque_intf.res_of_pop (A.pop_right d)
            | Spec.Op.Pop_left -> Deque.Deque_intf.res_of_pop (A.pop_left d)
          in
          (match res with
          | Spec.Op.Okay -> incr okay
          | Spec.Op.Full -> incr full
          | Spec.Op.Got _ -> incr got
          | Spec.Op.Empty -> incr empty);
          let oracle', expect = Spec.Seq_deque.apply !oracle op in
          oracle := oracle';
          if not (Spec.Op.equal_res Int.equal res expect) then agree := false
        done;
        let inv =
          match A.check_invariant d with Ok () -> "ok" | Error e -> e
        in
        [
          string_of_int length;
          string_of_int ops_count;
          string_of_int !okay;
          string_of_int !full;
          string_of_int !got;
          string_of_int !empty;
          (if !agree then "yes" else "NO");
          inv;
        ])
      [ 1; 2; 8; 64 ]
  in
  Harness.Table.print
    ~headers:[ "length"; "ops"; "okay"; "full"; "got"; "empty"; "=oracle"; "invariant" ]
    rows;
  note "every response agrees with the Section 2.2 oracle across %d ops/row"
    ops_count

(* ------------------------------------------------------------------ *)
(* E2: contended pops on a single element (Figures 5/6)                *)
(* ------------------------------------------------------------------ *)

let winner_stats scenario ~samples ~seed =
  (* run random schedules and record which thread won the element *)
  let right = ref 0 and left = ref 0 in
  let state = ref (seed lor 1) in
  let rand bound =
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s land max_int;
    !state mod bound
  in
  for _ = 1 to samples do
    let decide _depth enabled = rand (List.length enabled) in
    let report = Modelcheck.Explorer.run_schedule scenario ~decide in
    Array.iter
      (fun (e : (int Spec.Op.op, int Spec.Op.res) Spec.History.entry) ->
        match (e.op, e.result) with
        | Spec.Op.Pop_right, Spec.Op.Got _ -> incr right
        | Spec.Op.Pop_left, Spec.Op.Got _ -> incr left
        | _, _ -> ())
      report.Modelcheck.Explorer.history
  done;
  (!right, !left)

let e2 ~quick =
  header "E2  popRight vs popLeft racing for the last element (Figs 5/6)";
  let samples = cnt ~quick 20_000 in
  let rows =
    List.map
      (fun (label, scenario) ->
        let outcome = Modelcheck.Explorer.explore scenario in
        let verdict =
          match outcome.Modelcheck.Explorer.error with
          | None -> "linearizable"
          | Some f -> "FAILED: " ^ f.Modelcheck.Explorer.reason
        in
        let r, l = winner_stats scenario ~samples ~seed:17 in
        [
          label;
          string_of_int outcome.Modelcheck.Explorer.schedules;
          (if outcome.Modelcheck.Explorer.exhaustive then "yes" else "no");
          verdict;
          Printf.sprintf "%d (%.1f%%)" r
            (100. *. float_of_int r /. float_of_int samples);
          Printf.sprintf "%d (%.1f%%)" l
            (100. *. float_of_int l /. float_of_int samples);
          string_of_int (samples - r - l);
        ])
      [
        ( "array",
          Modelcheck.Scenario.array_deque ~name:"fig6a" ~length:4
            ~prefill:[ 42 ]
            [ [ Spec.Op.Pop_right ]; [ Spec.Op.Pop_left ] ] );
        ( "array(no-hints)",
          Modelcheck.Scenario.array_deque ~hints:false ~name:"fig6nh" ~length:4
            ~prefill:[ 42 ]
            [ [ Spec.Op.Pop_right ]; [ Spec.Op.Pop_left ] ] );
        ( "list",
          Modelcheck.Scenario.list_deque ~name:"fig6l" ~prefill:[ 42 ]
            [ [ Spec.Op.Pop_right ]; [ Spec.Op.Pop_left ] ] );
        ( "list-dummy",
          Modelcheck.Scenario.list_deque_dummy ~name:"fig6d" ~prefill:[ 42 ]
            [ [ Spec.Op.Pop_right ]; [ Spec.Op.Pop_left ] ] );
      ]
  in
  Harness.Table.print
    ~headers:
      [ "deque"; "schedules"; "exhaustive"; "verdict"; "right wins"; "left wins"; "neither" ]
    rows;
  note "exactly one side wins in every schedule (right+left = %d samples)"
    samples

(* ------------------------------------------------------------------ *)
(* E3: the list deque's empty-state family and contending deletes      *)
(* ------------------------------------------------------------------ *)

let e3 ~quick =
  ignore quick;
  header "E3  list deque: Figure 9 empty states and Figure 16 deletes";
  let open Spec.Op in
  let scenarios =
    [
      ( "plain empty: pop/pop",
        Modelcheck.Scenario.list_deque ~name:"s0" ~prefill:[]
          [ [ Pop_right ]; [ Pop_left ] ] );
      ( "right-deleted: push/pop contend",
        Modelcheck.Scenario.list_deque ~name:"s1" ~prefill:[ 1 ]
          ~setup:[ Pop_right ]
          [ [ Push_right 2 ]; [ Pop_right ] ] );
      ( "left-deleted: push/pop contend",
        Modelcheck.Scenario.list_deque ~name:"s2" ~prefill:[ 1 ]
          ~setup:[ Pop_left ]
          [ [ Push_left 2 ]; [ Pop_left ] ] );
      ( "two deleted: contending deletes (Fig 16)",
        Modelcheck.Scenario.list_deque ~name:"s3" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ] );
      ( "two deleted: deletes raced by pops",
        Modelcheck.Scenario.list_deque ~name:"s4" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Pop_right ]; [ Pop_left ] ] );
      ( "dummy variant: contending deletes",
        Modelcheck.Scenario.list_deque_dummy ~name:"s5" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ] );
    ]
  in
  let rows =
    List.map
      (fun (label, s) ->
        let t0 = Unix.gettimeofday () in
        let o = Modelcheck.Explorer.explore s in
        [
          label;
          string_of_int o.Modelcheck.Explorer.schedules;
          (if o.Modelcheck.Explorer.exhaustive then "yes" else "no");
          (match o.Modelcheck.Explorer.error with
          | None -> "invariant + linearizable"
          | Some f -> "FAILED: " ^ f.Modelcheck.Explorer.reason);
          Printf.sprintf "%.2fs" (Unix.gettimeofday () -. t0);
        ])
      scenarios
  in
  Harness.Table.print
    ~headers:[ "scenario"; "schedules"; "exhaustive"; "verdict"; "time" ]
    rows;
  note "RepInv (Figs 18/24/25) checked after every shared-memory step"

(* ------------------------------------------------------------------ *)
(* E4: primitive cost hierarchy (Section 2 assumption)                 *)
(* ------------------------------------------------------------------ *)

let e4 ~quick =
  header "E4  primitive latencies: read < write < CAS < DCAS (Section 2)";
  let quota = if quick then 0.2 else 0.5 in
  let mem_cases (module M : Dcas.Memory_intf.MEMORY) =
    let r = M.make 0 in
    let w = M.make 0 in
    let a = M.make 0 and b = M.make 0 in
    let m1 = M.make 0 and m2 = M.make 0 in
    [
      (M.name ^ "/read", fun () -> ignore (M.get r));
      (M.name ^ "/write", fun () -> M.set w 0);
      (M.name ^ "/dcas-hit", fun () -> ignore (M.dcas a b 0 0 0 0));
      (M.name ^ "/dcas-miss", fun () -> ignore (M.dcas m1 m2 1 1 0 0));
    ]
  in
  let atomic_cases =
    let x = Atomic.make 0 in
    [
      ("atomic/read", fun () -> ignore (Atomic.get x));
      ("atomic/write", fun () -> Atomic.set x 0);
      ("atomic/cas-hit", fun () -> ignore (Atomic.compare_and_set x 0 0));
      ("atomic/cas-miss", fun () -> ignore (Atomic.compare_and_set x 1 0));
    ]
  in
  let cases =
    atomic_cases
    @ mem_cases (module Dcas.Mem_lockfree)
    @ mem_cases (module Dcas.Mem_lock)
    @ mem_cases (module Dcas.Mem_striped)
    @ mem_cases (module Dcas.Mem_seq)
  in
  let results = ns_per_op ~quota cases in
  Harness.Table.print ~headers:[ "operation"; "ns/op" ]
    (List.map (fun (n, ns) -> [ n; fmt_ns ns ]) results);
  note "single-thread, uncontended; hardware CAS baseline on top"

(* ------------------------------------------------------------------ *)
(* E5: uninterrupted concurrent access to both ends                    *)
(* ------------------------------------------------------------------ *)

let e5 ~quick =
  header "E5  two-end independence: ours vs Greenwald v1 (ends serialized)";
  let duration = dur ~quick 0.4 in
  let capacity = 4096 and prefill = 2048 in
  let factories = [ array_lockfree; greenwald1; lock_deque; spin_deque ] in
  let rows =
    List.map
      (fun f ->
        Dcas.Mem_lockfree.reset_stats ();
        let t1 = two_end_throughput ~threads:1 ~duration f ~capacity ~prefill in
        let t2 = two_end_throughput ~threads:2 ~duration f ~capacity ~prefill in
        let t4 = two_end_throughput ~threads:4 ~duration f ~capacity ~prefill in
        let s = Dcas.Mem_lockfree.stats () in
        let success_rate =
          if s.Dcas.Memory_intf.dcas_attempts = 0 then "-"
          else
            Harness.Table.pct
              (float_of_int s.Dcas.Memory_intf.dcas_successes
              /. float_of_int s.Dcas.Memory_intf.dcas_attempts)
        in
        [
          f.f_name;
          fmt_tp t1;
          fmt_tp t2;
          fmt_tp t4;
          Harness.Table.ratio (t2 /. t1);
          success_rate;
        ])
      factories
  in
  Harness.Table.print
    ~headers:
      [ "implementation"; "1 thr"; "2 thr (ends)"; "4 thr"; "2t/1t"; "dcas ok" ]
    rows;
  note
    "even threads use the right end, odd the left (single-core box: the\n\
     throughput deltas mostly reflect per-op cost, not parallelism)";
  (* The hardware-independent signal: over ALL interleavings of one
     right-end op against one left-end op, does either ever have to
     retry?  DCAS attempts beyond one per operation mean the ends
     interfered.  The paper's deque never retries; Greenwald v1's
     packed index word forces retries. *)
  let interference scenario =
    let min_a = ref max_int and max_a = ref 0 and schedules = ref 0 in
    let on_schedule (_ : Modelcheck.Explorer.run_report) =
      let s = Modelcheck.Mem_model.stats () in
      let a = s.Dcas.Memory_intf.dcas_attempts in
      if a < !min_a then min_a := a;
      if a > !max_a then max_a := a;
      incr schedules;
      Modelcheck.Mem_model.reset_stats ()
    in
    Modelcheck.Mem_model.reset_stats ();
    let o = Modelcheck.Explorer.explore ~on_schedule scenario in
    (o, !min_a, !max_a, !schedules)
  in
  let open Spec.Op in
  let rows =
    List.map
      (fun (label, scenario) ->
        let o, min_a, max_a, _ = interference scenario in
        [
          label;
          string_of_int o.Modelcheck.Explorer.schedules;
          string_of_int min_a;
          string_of_int max_a;
          (if max_a > min_a then "ends interfere" else "never a retry");
        ])
      [
        ( "array (paper)",
          Modelcheck.Scenario.array_deque ~name:"i1" ~length:8
            ~prefill:[ 1; 2; 3; 4 ]
            [ [ Push_right 9 ]; [ Push_left 8 ] ] );
        ( "greenwald-v1",
          Modelcheck.Scenario.greenwald_v1 ~name:"i2" ~length:8
            ~prefill:[ 1; 2; 3; 4 ]
            [ [ Push_right 9 ]; [ Push_left 8 ] ] );
      ]
  in
  Printf.printf "\ninterference across ALL interleavings (1 op per end):\n";
  Harness.Table.print
    ~headers:[ "implementation"; "schedules"; "min dcas"; "max dcas"; "verdict" ]
    rows;
  note
    "counts include the 4 prefill pushes; with 4 items between the ends the\n\
     paper's deque needs the same minimal DCAS count under EVERY schedule,\n\
     while v1's single index word forces retries when the ends interleave"

(* ------------------------------------------------------------------ *)
(* E6: Greenwald v2's false boundary reports                           *)
(* ------------------------------------------------------------------ *)

let e6 ~quick =
  ignore quick;
  header "E6  Greenwald v2: false 'full' with one element (Section 1.1)";
  let open Spec.Op in
  let threads =
    [ [ Push_right 9 ]; [ Pop_left; Push_right 8 ] ]
  in
  let rows =
    List.map
      (fun (label, outcome) ->
        [
          label;
          string_of_int outcome.Modelcheck.Explorer.schedules;
          (match outcome.Modelcheck.Explorer.error with
          | None -> "linearizable (exhaustive)"
          | Some f ->
              Printf.sprintf "FAILS (%s)" f.Modelcheck.Explorer.reason);
        ])
      [
        ( "greenwald-v2 (no boundary confirm)",
          Modelcheck.Explorer.explore
            (Modelcheck.Scenario.greenwald_v2 ~name:"g2" ~length:2
               ~prefill:[ 7 ] threads) );
        ( "paper's array deque, same scenario",
          Modelcheck.Explorer.explore
            (Modelcheck.Scenario.array_deque ~name:"ours" ~length:2
               ~prefill:[ 7 ] threads) );
      ]
  in
  Harness.Table.print ~headers:[ "algorithm"; "schedules"; "verdict" ] rows;
  note
    "v2 concludes 'full' from two separate reads; the paper's confirming\n\
     no-op DCAS (Fig 3 lines 6-10) makes the same scenario linearizable"

(* ------------------------------------------------------------------ *)
(* E7: array vs list trade-off across mixes and threads                *)
(* ------------------------------------------------------------------ *)

let e7 ~quick =
  header "E7  array vs linked-list deque across workloads";
  let duration = dur ~quick 0.35 in
  let capacity = 1024 and prefill = 512 in
  let mixes =
    [
      ("balanced", Harness.Workload.balanced);
      ("push-heavy", Harness.Workload.push_heavy);
      ("pop-heavy", Harness.Workload.pop_heavy);
      ("fifo", Harness.Workload.fifo);
      ("lifo-right", Harness.Workload.lifo_right);
    ]
  in
  let factories = [ array_lockfree; list_lockfree; dummy_lockfree ] in
  List.iter
    (fun (mix_name, mix) ->
      let rows =
        List.map
          (fun f ->
            let tp t =
              mixed_throughput ~threads:t ~duration ~mix f ~capacity ~prefill
            in
            let t1 = tp 1 and t2 = tp 2 and t4 = tp 4 in
            [ f.f_name; fmt_tp t1; fmt_tp t2; fmt_tp t4 ])
          factories
      in
      Printf.printf "\n-- mix: %s --\n" mix_name;
      Harness.Table.print
        ~headers:[ "implementation"; "1 thr"; "2 thr"; "4 thr" ]
        rows)
    mixes;
  note
    "\nexpected shape: array wins (no allocation, one DCAS per pop);\n\
     the list pays the split pop's extra DCAS plus allocation, and buys\n\
     unbounded capacity"

(* Latency distribution under contention: each worker times batches of
   operations and records the per-batch mean into one shared histogram
   (gettimeofday is too coarse for single sub-microsecond operations).
   Complements E7's throughput shape with tail behaviour — retry loops
   under contention show up in p99, not in the mean. *)
let e7_latency ~quick =
  header "E7b latency distribution under contention (4 threads, balanced mix)";
  let duration = dur ~quick 0.6 in
  let batch = 64 and threads = 4 in
  let measure (factory : factory) =
    let h = factory.make ~capacity:1024 ~prefill:512 in
    let hist = Dcas.Histogram.create () in
    let r =
      Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
          let t0 = Harness.Metrics.now () in
          for _ = 1 to batch do
            ignore
              (Harness.Workload.apply
                 ~push_right:(fun v -> if h.push_right v then `Okay else `Full)
                 ~push_left:(fun v -> if h.push_left v then `Okay else `Full)
                 ~pop_right:(fun () ->
                   if h.pop_right () then `Value 0 else `Empty)
                 ~pop_left:(fun () -> if h.pop_left () then `Value 0 else `Empty)
                 Harness.Workload.balanced rng tid)
          done;
          Dcas.Histogram.record hist
            (int_of_float
               ((Harness.Metrics.now () -. t0) *. 1e9 /. float_of_int batch)))
    in
    (* each thread spends the whole run on its batches *)
    let mean_ns =
      float_of_int threads *. r.Harness.Runner.elapsed *. 1e9
      /. float_of_int (batch * Harness.Runner.total r)
    in
    [
      factory.f_name;
      fmt_ns mean_ns;
      fmt_q (Dcas.Histogram.quantile hist 0.5);
      fmt_q (Dcas.Histogram.quantile hist 0.99);
    ]
  in
  Harness.Table.print
    ~headers:[ "implementation"; "mean/op"; "p50"; "p99" ]
    (List.map measure
       [ array_lockfree; list_lockfree; dummy_lockfree; lock_deque ]);
  note
    "per-batch means of %d ops; p99 >> p50 indicates retry storms or\n\
     preemption inside operations (quantiles are upper bounds within 3.1%%)"
    batch

(* ------------------------------------------------------------------ *)
(* E8: work-stealing application (Arora et al. [4])                    *)
(* ------------------------------------------------------------------ *)

let e8 ~quick =
  header "E8  work-stealing scheduler: restricted ABP vs general deques";
  let n = if quick then 25 else 30 in
  let schedulers :
      (string * (module Worksteal.Worksteal_intf.SCHEDULER)) list =
    [
      ("abp (CAS only)", (module Worksteal.Scheduler.Abp_scheduler));
      ("array-dcas", (module Worksteal.Scheduler.Array_scheduler));
      ("list-dcas", (module Worksteal.Scheduler.List_scheduler));
      ("lock", (module Worksteal.Scheduler.Lock_scheduler));
    ]
  in
  let rec seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2) in
  let expect = seq_fib n in
  let rows =
    List.map
      (fun (name, (module S : Worksteal.Worksteal_intf.SCHEDULER)) ->
        let module W = Worksteal.Workloads.Make (S) in
        let run workers =
          let t0 = Unix.gettimeofday () in
          let got = W.fib ~workers ~capacity:65536 n in
          let dt = Unix.gettimeofday () -. t0 in
          assert (got = expect);
          dt
        in
        let t1 = run 1 and t2 = run 2 and t4 = run 4 in
        [
          name;
          Printf.sprintf "%.3fs" t1;
          Printf.sprintf "%.3fs" t2;
          Printf.sprintf "%.3fs" t4;
        ])
      schedulers
  in
  Printf.printf "workload: fib %d (result %d)\n" n expect;
  Harness.Table.print ~headers:[ "deque"; "1 worker"; "2 workers"; "4 workers" ] rows;
  note
    "ABP's restricted CAS-only deque is the cheapest, as Section 1.1\n\
     concedes; the general DCAS deques pay for unrestricted two-end access"

(* ------------------------------------------------------------------ *)
(* E9: resilience to stalls (non-blocking claim)                       *)
(* ------------------------------------------------------------------ *)

(* The fault-instrumented lock-free substrate: E9's stalls, E22's
   crashes and E23's frozen-peer probe all run over it. *)
module Fault_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module Stalling_array = Deque.Array_deque.Make (Fault_mem)

let e9 ~quick =
  header "E9  throughput while one thread stalls mid-operation";
  let duration = dur ~quick 1.2 in
  let stall = 0.05 in
  (* lock-free: staller sleeps between two shared accesses of a push *)
  let lockfree_run ~with_staller =
    let d = Stalling_array.make ~length:1024 () in
    for i = 1 to 512 do
      ignore (Stalling_array.push_right d i)
    done;
    let stop = Atomic.make false in
    let staller =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            if with_staller then begin
              Harness.Stall.request ~after_ops:2 ~duration:stall;
              ignore (Stalling_array.push_right d 0)
            end
            else Unix.sleepf stall
          done)
    in
    let r =
      Harness.Runner.run ~threads:2 ~duration (fun ~tid ~rng ->
          ignore
            (Harness.Workload.apply
               ~push_right:(fun v ->
                 if Stalling_array.push_right d v = `Okay then `Okay else `Full)
               ~push_left:(fun v ->
                 if Stalling_array.push_left d v = `Okay then `Okay else `Full)
               ~pop_right:(fun () ->
                 match Stalling_array.pop_right d with
                 | `Value _ -> `Value 0
                 | `Empty -> `Empty)
               ~pop_left:(fun () ->
                 match Stalling_array.pop_left d with
                 | `Value _ -> `Value 0
                 | `Empty -> `Empty)
               Harness.Workload.balanced rng tid))
    in
    Atomic.set stop true;
    Domain.join staller;
    Harness.Runner.throughput r
  in
  (* lock-based: staller sleeps holding the deque's mutex *)
  let lock_run ~with_staller =
    let d = Baselines.Lock_deque.create ~capacity:1024 () in
    for i = 1 to 512 do
      ignore (Baselines.Lock_deque.push_right d i)
    done;
    let stop = Atomic.make false in
    let staller =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            if with_staller then
              Baselines.Lock_deque.with_lock_held d (fun () ->
                  Unix.sleepf stall)
            else Unix.sleepf stall
          done)
    in
    let r =
      Harness.Runner.run ~threads:2 ~duration (fun ~tid ~rng ->
          ignore
            (Harness.Workload.apply
               ~push_right:(fun v ->
                 if Baselines.Lock_deque.push_right d v = `Okay then `Okay
                 else `Full)
               ~push_left:(fun v ->
                 if Baselines.Lock_deque.push_left d v = `Okay then `Okay
                 else `Full)
               ~pop_right:(fun () ->
                 match Baselines.Lock_deque.pop_right d with
                 | `Value _ -> `Value 0
                 | `Empty -> `Empty)
               ~pop_left:(fun () ->
                 match Baselines.Lock_deque.pop_left d with
                 | `Value _ -> `Value 0
                 | `Empty -> `Empty)
               Harness.Workload.balanced rng tid))
    in
    Atomic.set stop true;
    Domain.join staller;
    Harness.Runner.throughput r
  in
  let rows =
    [
      (let base = lockfree_run ~with_staller:false in
       let stalled = lockfree_run ~with_staller:true in
       [
         "array-dcas (stall mid-op)";
         fmt_tp base;
         fmt_tp stalled;
         Harness.Table.pct (stalled /. base);
       ]);
      (let base = lock_run ~with_staller:false in
       let stalled = lock_run ~with_staller:true in
       [
         "lock-deque (stall in section)";
         fmt_tp base;
         fmt_tp stalled;
         Harness.Table.pct (stalled /. base);
       ]);
    ]
  in
  Harness.Table.print
    ~headers:[ "implementation"; "no staller"; "staller"; "retained" ]
    rows;
  note
    "staller sleeps %.0fms in the middle of an operation, repeatedly;\n\
     the lock holder stops the world, the DCAS deque does not" (stall *. 1000.)

(* ------------------------------------------------------------------ *)
(* E10: the optional hints of Figures 2/3 (lines 7 and 17-18)          *)
(* ------------------------------------------------------------------ *)

let e10 ~quick =
  header "E10 hints ablation: lines 7 and 17-18 of Figures 2/3";
  let quota = if quick then 0.2 else 0.4 in
  (* single-thread costs at the boundary (where the hints live) *)
  let mk ~hints =
    let module A = Deque.Array_deque.Lockfree in
    let d = A.make ~hints ~length:1 () in
    fun () ->
      (* each iteration: push into empty, fail a push (full), pop, fail
         a pop (empty): every boundary path once *)
      ignore (A.push_right d 1);
      ignore (A.push_left d 2);
      ignore (A.pop_left d);
      ignore (A.pop_right d)
  in
  let micro =
    ns_per_op ~quota
      [ ("boundary-cycle/hints", mk ~hints:true);
        ("boundary-cycle/no-hints", mk ~hints:false) ]
  in
  Harness.Table.print ~headers:[ "case"; "ns/cycle" ]
    (List.map (fun (n, v) -> [ n; fmt_ns v ]) micro);
  (* contended: DCAS traffic with and without hints *)
  let duration = dur ~quick 0.4 in
  let contended hints =
    let f = if hints then array_lockfree else array_nohints in
    Dcas.Mem_lockfree.reset_stats ();
    let tp =
      mixed_throughput ~threads:4 ~duration ~mix:Harness.Workload.balanced f
        ~capacity:2 ~prefill:1
    in
    let s = Dcas.Mem_lockfree.stats () in
    (tp, s)
  in
  let tp_h, s_h = contended true in
  let tp_n, s_n = contended false in
  let per_op (s : Dcas.Memory_intf.stats) tp =
    float_of_int s.Dcas.Memory_intf.dcas_attempts /. (tp *. duration)
  in
  Harness.Table.print
    ~headers:[ "variant"; "ops/s (4 thr, cap 2)"; "dcas/op"; "dcas ok" ]
    [
      [
        "hints";
        fmt_tp tp_h;
        Printf.sprintf "%.2f" (per_op s_h tp_h);
        Harness.Table.pct
          (float_of_int s_h.Dcas.Memory_intf.dcas_successes
          /. float_of_int (max 1 s_h.Dcas.Memory_intf.dcas_attempts));
      ];
      [
        "no-hints";
        fmt_tp tp_n;
        Printf.sprintf "%.2f" (per_op s_n tp_n);
        Harness.Table.pct
          (float_of_int s_n.Dcas.Memory_intf.dcas_successes
          /. float_of_int (max 1 s_n.Dcas.Memory_intf.dcas_attempts));
      ];
    ];
  note
    "the paper: 'Experimentation would be required to determine whether\n\
     either or both of these code fragments should be included' — here is\n\
     that experimentation on this substrate"

(* ------------------------------------------------------------------ *)
(* E11: deleted bit vs dummy nodes (footnote 4 / Figure 10)            *)
(* ------------------------------------------------------------------ *)

let e11 ~quick =
  header "E11 deleted-bit vs dummy-node encoding (Figure 10)";
  let quota = if quick then 0.2 else 0.4 in
  let module L = Deque.List_deque.Lockfree in
  let module D = Deque.List_deque_dummy.Lockfree in
  let l = L.make () in
  let d = D.make () in
  let micro =
    ns_per_op ~quota
      [
        ( "deleted-bit/push+pop",
          fun () ->
            ignore (L.push_right l 1);
            ignore (L.pop_right l) );
        ( "dummy-node/push+pop",
          fun () ->
            ignore (D.push_right d 1);
            ignore (D.pop_right d) );
      ]
  in
  (* allocation per push+pop cycle *)
  let alloc_per_cycle f =
    let cycles = 100_000 in
    let before = Gc.allocated_bytes () in
    for i = 1 to cycles do
      f i
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int cycles
  in
  let l2 = L.make () and d2 = D.make () in
  let bit_alloc =
    alloc_per_cycle (fun i ->
        ignore (L.push_right l2 i);
        ignore (L.pop_right l2))
  in
  let dummy_alloc =
    alloc_per_cycle (fun i ->
        ignore (D.push_right d2 i);
        ignore (D.pop_right d2))
  in
  let duration = dur ~quick 0.4 in
  let tp f =
    mixed_throughput ~threads:4 ~duration ~mix:Harness.Workload.balanced f
      ~capacity:1024 ~prefill:64
  in
  let tp_bit = tp list_lockfree and tp_dummy = tp dummy_lockfree in
  Harness.Table.print
    ~headers:[ "encoding"; "ns/cycle (1 thr)"; "bytes/cycle"; "ops/s (4 thr)" ]
    [
      [
        "deleted-bit";
        fmt_ns (List.assoc "deleted-bit/push+pop" micro);
        Printf.sprintf "%.0f" bit_alloc;
        fmt_tp tp_bit;
      ];
      [
        "dummy-node";
        fmt_ns (List.assoc "dummy-node/push+pop" micro);
        Printf.sprintf "%.0f" dummy_alloc;
        fmt_tp tp_dummy;
      ];
    ];
  note
    "the dummy encoding trades the pointer tag bit for one extra\n\
     allocation per pop (the dummy), visible in bytes/cycle"

(* ------------------------------------------------------------------ *)
(* E12: one algorithm, four DCAS substrates                            *)
(* ------------------------------------------------------------------ *)

let e12 ~quick =
  header "E12 the same deques over each DCAS implementation (Section 2.1)";
  let duration = dur ~quick 0.35 in
  let groups =
    [
      ("array", [ array_lockfree; array_locked; array_striped ]);
      ("list", [ list_lockfree; list_locked; list_striped ]);
    ]
  in
  List.iter
    (fun (g, factories) ->
      let rows =
        List.map
          (fun f ->
            let tp t =
              mixed_throughput ~threads:t ~duration
                ~mix:Harness.Workload.balanced f ~capacity:1024 ~prefill:512
            in
            let t1 = tp 1 and t4 = tp 4 in
            [ f.f_name; fmt_tp t1; fmt_tp t4; Harness.Table.ratio (t4 /. t1) ])
          factories
      in
      Printf.printf "\n-- %s deque --\n" g;
      Harness.Table.print
        ~headers:[ "substrate"; "1 thr"; "4 thr"; "4t/1t" ]
        rows)
    groups;
  note
    "\nthe global lock serializes even reads; stripes recover most of it;\n\
     the lock-free CASN costs more per op but never blocks (cf. E9/E14)"

(* ------------------------------------------------------------------ *)
(* E13: verification volume (Theorems 3.1/4.1, empirically)            *)
(* ------------------------------------------------------------------ *)

let e13 ~quick =
  header "E13 verification volume: exhaustive + recorded histories";
  let open Spec.Op in
  (* exhaustive side: the scenario battery *)
  let battery =
    [
      ( "array fig6",
        Modelcheck.Scenario.array_deque ~name:"b1" ~length:4 ~prefill:[ 1 ]
          [ [ Pop_right ]; [ Pop_left ] ] );
      ( "array 3-thread",
        Modelcheck.Scenario.array_deque ~name:"b2" ~length:3 ~prefill:[ 1 ]
          [ [ Pop_right ]; [ Pop_left ]; [ Push_right 9 ] ] );
      ( "list fig16",
        Modelcheck.Scenario.list_deque ~name:"b3" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ] );
      ( "list push/push",
        Modelcheck.Scenario.list_deque ~name:"b4" ~prefill:[]
          [ [ Push_right 1 ]; [ Push_left 2 ] ] );
    ]
  in
  let rows =
    List.map
      (fun (label, s) ->
        let o = Modelcheck.Explorer.explore s in
        [
          label;
          string_of_int o.Modelcheck.Explorer.schedules;
          (match o.Modelcheck.Explorer.error with
          | None -> "ok"
          | Some f -> "FAILED: " ^ f.Modelcheck.Explorer.reason);
        ])
      battery
  in
  Harness.Table.print ~headers:[ "scenario"; "schedules"; "verdict" ] rows;
  (* recorded-history side *)
  let rounds = cnt ~quick 60 in
  let threads = 3 and ops_per_thread = 8 in
  (* Full value-tracked rounds (same machinery as the test suite). *)
  let value_rounds label (make_apply : unit -> int Spec.Op.op -> int Spec.Op.res)
      ~capacity =
    let failures = ref 0 in
    let total_ops = ref 0 in
    for seed = 1 to rounds do
      let apply = make_apply () in
      let recorder = Spec.History.Recorder.create ~threads in
      let master = Dcas.Splitmix.create ~seed in
      let rngs = Array.init threads (fun _ -> Dcas.Splitmix.split master) in
      let started = Atomic.make 0 in
      let worker tid () =
        let rng = rngs.(tid) in
        Atomic.incr started;
        while Atomic.get started < threads do
          Domain.cpu_relax ()
        done;
        for i = 1 to ops_per_thread do
          let op =
            match Dcas.Splitmix.int rng ~bound:4 with
            | 0 -> Push_right ((tid * 1000) + i)
            | 1 -> Push_left ((tid * 1000) + i)
            | 2 -> Pop_right
            | _ -> Pop_left
          in
          ignore
            (Spec.History.Recorder.record recorder ~thread:tid op (fun () ->
                 apply op))
        done
      in
      let ds = List.init threads (fun tid -> Domain.spawn (worker tid)) in
      List.iter Domain.join ds;
      total_ops := !total_ops + (threads * ops_per_thread);
      match
        Spec.Linearizability.check_deque ?capacity
          (Spec.History.Recorder.history recorder)
      with
      | Ok _ -> ()
      | Error () -> incr failures
    done;
    [ label; string_of_int rounds; string_of_int !total_ops;
      string_of_int !failures ]
  in
  let array_apply () =
    let module A = Deque.Array_deque.Lockfree in
    let d = A.make ~length:4 () in
    fun (op : int Spec.Op.op) ->
      match op with
      | Push_right v -> Deque.Deque_intf.res_of_push (A.push_right d v)
      | Push_left v -> Deque.Deque_intf.res_of_push (A.push_left d v)
      | Pop_right -> Deque.Deque_intf.res_of_pop (A.pop_right d)
      | Pop_left -> Deque.Deque_intf.res_of_pop (A.pop_left d)
  in
  let list_apply () =
    let module L = Deque.List_deque.Lockfree in
    let d = L.make () in
    fun (op : int Spec.Op.op) ->
      match op with
      | Push_right v -> Deque.Deque_intf.res_of_push (L.push_right d v)
      | Push_left v -> Deque.Deque_intf.res_of_push (L.push_left d v)
      | Pop_right -> Deque.Deque_intf.res_of_pop (L.pop_right d)
      | Pop_left -> Deque.Deque_intf.res_of_pop (L.pop_left d)
  in
  Harness.Table.print
    ~headers:[ "implementation"; "rounds"; "ops checked"; "failures" ]
    [
      value_rounds "array (3 domains, recorded)" array_apply ~capacity:(Some 4);
      value_rounds "list (3 domains, recorded)" list_apply ~capacity:None;
    ];
  note "Wing&Gong checking of real concurrent histories, plus the battery above"

(* ------------------------------------------------------------------ *)
(* E14: lock-freedom stall points                                      *)
(* ------------------------------------------------------------------ *)

let e14 ~quick =
  ignore quick;
  header "E14 lock-freedom: every stall point of a victim survived";
  let open Spec.Op in
  let cases =
    [
      ( "array, victim pushes+pops",
        Modelcheck.Scenario.array_deque ~name:"n1" ~length:3 ~prefill:[ 1 ]
          [ [ Pop_right; Push_right 2 ]; [ Pop_left ]; [ Push_left 3 ] ],
        0 );
      ( "list, victim pops (split deletion)",
        Modelcheck.Scenario.list_deque ~name:"n2" ~prefill:[ 1; 2 ]
          [ [ Pop_right; Push_right 3 ]; [ Pop_left ]; [ Push_left 4 ] ],
        0 );
      ( "list, victim completes Fig 16 deletes",
        Modelcheck.Scenario.list_deque ~name:"n3" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ]; [ Pop_right ] ],
        0 );
      ( "dummy variant",
        Modelcheck.Scenario.list_deque_dummy ~name:"n4" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ],
        1 );
    ]
  in
  let rows =
    List.map
      (fun (label, scenario, victim) ->
        match Modelcheck.Explorer.check_nonblocking scenario ~victim with
        | Ok n -> [ label; string_of_int n; "all completed" ]
        | Error j -> [ label; string_of_int j; "BLOCKED" ])
      cases
  in
  Harness.Table.print
    ~headers:[ "scenario (victim frozen mid-operation)"; "stall points"; "others" ]
    rows;
  note
    "for contrast, a lock-based deque fails this by construction: a victim\n\
     frozen inside the critical section blocks every other thread (E9)"

(* ------------------------------------------------------------------ *)
(* E15: substrate scaling sweep (tentpole of the adaptive-substrate    *)
(* work): throughput and DCAS fate per domain count and substrate      *)
(* ------------------------------------------------------------------ *)

let e15 ~quick =
  header "E15 substrate scaling: throughput and DCAS fate vs domains";
  (* Cost of the pre-validation fast path, measured directly: a DCAS
     whose expected values are already stale returns false from two
     plain reads — no descriptor, no helping, no allocation.  The
     success path allocates and walks the full protocol, so the gap is
     what a contended retry loop saves per doomed attempt. *)
  let quota = if quick then 0.2 else 0.4 in
  let a = Dcas.Mem_lockfree.make 0 and b = Dcas.Mem_lockfree.make 0 in
  let micro =
    ns_per_op ~quota
      [
        ( "fastfail",
          fun () -> ignore (Dcas.Mem_lockfree.dcas a b 1 1 2 2) );
        ( "success",
          fun () ->
            let va = Dcas.Mem_lockfree.get a and vb = Dcas.Mem_lockfree.get b in
            ignore (Dcas.Mem_lockfree.dcas a b va vb (va + 1) (vb + 1)) );
      ]
  in
  Dcas.Mem_lockfree.reset_stats ();
  let n_forced = cnt ~quick 10_000 in
  for _ = 1 to n_forced do
    ignore (Dcas.Mem_lockfree.dcas a b (-1) (-1) 0 0)
  done;
  let forced = Dcas.Mem_lockfree.stats () in
  Harness.Table.print
    ~headers:[ "dcas outcome"; "ns/op"; "allocates" ]
    [
      [ "fail via pre-validation"; fmt_ns (List.assoc "fastfail" micro); "no" ];
      [ "success (descriptor path)"; fmt_ns (List.assoc "success" micro); "yes" ];
    ];
  note "forced-stale sanity: %d attempts -> %d fast-fails (no descriptor built)"
    forced.Dcas.Memory_intf.dcas_attempts
    forced.Dcas.Memory_intf.dcas_fastfails;
  (* The sweep proper: one array deque per (substrate, domain-count)
     cell, all domains hammering both ends of a deliberately small
     deque (capacity 16) so the index words stay contended.  The stats
     columns attribute every DCAS attempt: committed, killed early by
     pre-validation, or killed late by the full protocol. *)
  let duration = dur ~quick 0.4 in
  let substrates =
    [
      ("lockfree", array_lockfree, Dcas.Mem_lockfree.reset_stats,
       Dcas.Mem_lockfree.stats);
      ("striped", array_striped, Dcas.Mem_striped.reset_stats,
       Dcas.Mem_striped.stats);
      ("locked", array_locked, Dcas.Mem_lock.reset_stats, Dcas.Mem_lock.stats);
    ]
  in
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let rows =
    List.concat_map
      (fun (sname, factory, reset, stats) ->
        List.map
          (fun domains ->
            reset ();
            let tp =
              mixed_throughput ~threads:domains ~duration
                ~mix:Harness.Workload.balanced factory ~capacity:16 ~prefill:8
            in
            let s = stats () in
            let open Dcas.Memory_intf in
            let rate part whole =
              if whole = 0 then 0. else float_of_int part /. float_of_int whole
            in
            emit_json
              (Harness.Json.Obj
                 [
                   ("experiment", Harness.Json.String "e15");
                   ("substrate", Harness.Json.String sname);
                   ("domains", Harness.Json.Int domains);
                   ("ops_per_sec", Harness.Json.Float tp);
                   ("dcas_attempts", Harness.Json.Int s.dcas_attempts);
                   ("dcas_successes", Harness.Json.Int s.dcas_successes);
                   ("dcas_fastfails", Harness.Json.Int s.dcas_fastfails);
                 ]);
            [
              sname;
              string_of_int domains;
              fmt_tp tp;
              Harness.Table.pct (rate s.dcas_successes s.dcas_attempts);
              string_of_int s.dcas_fastfails;
              Harness.Table.pct (rate s.dcas_fastfails s.dcas_attempts);
            ])
          domain_counts)
      substrates
  in
  Harness.Table.print
    ~headers:
      [ "substrate"; "domains"; "ops/s"; "dcas ok"; "fastfails"; "fastfail" ]
    rows;
  note
    "single instance, capacity 16, balanced two-end mix; 'fastfail' counts\n\
     doomed DCASes rejected by pre-validation before any descriptor is\n\
     allocated (lockfree substrate only; lock-based substrates have no\n\
     slow path to skip)"

(* ------------------------------------------------------------------ *)
(* E17: what a 3-word CAS would buy (extension; Section 6's question)  *)
(* ------------------------------------------------------------------ *)

let casn3_lockfree = of_list_dummy (module Deque.List_deque_casn.Lockfree)

let e17 ~quick =
  header "E17 extension: DCAS split pop vs single 3-word-CAS pop";
  let quota = if quick then 0.2 else 0.4 in
  (* atomic-operation count per pop, on the sequential substrate *)
  let ops_per_pop label prefill_push pop delete =
    Dcas.Mem_seq.reset_stats ();
    prefill_push ();
    let before = (Dcas.Mem_seq.stats ()).Dcas.Memory_intf.dcas_attempts in
    pop ();
    delete ();
    let after = (Dcas.Mem_seq.stats ()).Dcas.Memory_intf.dcas_attempts in
    (label, after - before)
  in
  let module L = Deque.List_deque.Sequential in
  let module C = Deque.List_deque_casn.Sequential in
  let l = L.make () and c = C.make () in
  let counts =
    [
      ops_per_pop "dcas-split"
        (fun () -> ignore (L.push_right l 1))
        (fun () -> ignore (L.pop_right l))
        (fun () -> L.delete_right l);
      ops_per_pop "3cas-direct"
        (fun () -> ignore (C.push_right c 1))
        (fun () -> ignore (C.pop_right c))
        (fun () -> C.delete_right c);
    ]
  in
  (* single-thread cycle latency on the lock-free substrate *)
  let module Ll = Deque.List_deque.Lockfree in
  let module Dl = Deque.List_deque_dummy.Lockfree in
  let module Cl = Deque.List_deque_casn.Lockfree in
  let ll = Ll.make () and dl = Dl.make () and cl = Cl.make () in
  let micro =
    ns_per_op ~quota
      [
        ( "dcas-split/push+pop",
          fun () ->
            ignore (Ll.push_right ll 1);
            ignore (Ll.pop_right ll) );
        ( "dcas-dummy/push+pop",
          fun () ->
            ignore (Dl.push_right dl 1);
            ignore (Dl.pop_right dl) );
        ( "3cas-direct/push+pop",
          fun () ->
            ignore (Cl.push_right cl 1);
            ignore (Cl.pop_right cl) );
      ]
  in
  let duration = dur ~quick 0.4 in
  let tp f =
    mixed_throughput ~threads:4 ~duration ~mix:Harness.Workload.balanced f
      ~capacity:1024 ~prefill:64
  in
  let tp_split = tp list_lockfree in
  let tp_dummy = tp dummy_lockfree in
  let tp_casn = tp casn3_lockfree in
  Harness.Table.print
    ~headers:
      [ "pop strategy"; "atomic ops/uncontended pop"; "ns/push+pop (1 thr)";
        "ops/s (4 thr)" ]
    [
      [
        "dcas split (paper, Section 4)";
        string_of_int (List.assoc "dcas-split" counts);
        fmt_ns (List.assoc "dcas-split/push+pop" micro);
        fmt_tp tp_split;
      ];
      [
        "dcas split + dummy nodes (Fig 10)";
        "-";
        fmt_ns (List.assoc "dcas-dummy/push+pop" micro);
        fmt_tp tp_dummy;
      ];
      [
        "single 3-word CAS (extension)";
        string_of_int (List.assoc "3cas-direct" counts);
        fmt_ns (List.assoc "3cas-direct/push+pop" micro);
        fmt_tp tp_casn;
      ];
    ];
  note
    "the 3CAS pop eliminates the split (no deleted bits, no delete\n\
     procedures) at the price of a wider atomic operation; its third\n\
     entry is a neighborhood validation DCAS cannot express (the 2-entry\n\
     variant is provably unsound: see test_list_deque_casn.ml)"

(* ------------------------------------------------------------------ *)
(* E16: what does the GC assumption protect? (Section 1.1, footnote 2) *)
(* ------------------------------------------------------------------ *)

let e16 ~quick =
  header "E16 node recycling: probing the paper's GC assumption";
  let open Spec.Op in
  (* model-check the recycling variant on ABA-friendly scenarios:
     freed nodes reused immediately, with repeated values so a stale
     expectation could match a recycled node *)
  let scenarios =
    [
      ( "popR;pushR(2) vs popL, prefill [2]",
        Modelcheck.Scenario.list_deque ~recycle:true ~name:"r2" ~prefill:[ 2 ]
          [ [ Pop_right; Push_right 2 ]; [ Pop_left ] ] );
      ( "popL;pushR(1) vs popR, prefill [1]",
        Modelcheck.Scenario.list_deque ~recycle:true ~name:"r3" ~prefill:[ 1 ]
          [ [ Pop_left; Push_right 1 ]; [ Pop_right ] ] );
      ( "pending deletion + pushR(2) vs popR",
        Modelcheck.Scenario.list_deque ~recycle:true ~name:"r4"
          ~prefill:[ 1; 2 ] ~setup:[ Pop_right ]
          [ [ Push_right 2 ]; [ Pop_right ] ] );
      ( "both deleted + same-value pushes",
        Modelcheck.Scenario.list_deque ~recycle:true ~name:"r5"
          ~prefill:[ 1; 2 ] ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 2 ]; [ Push_left 1 ] ] );
    ]
  in
  let max_schedules = if quick then 300_000 else 2_000_000 in
  let rows =
    List.map
      (fun (label, s) ->
        let o = Modelcheck.Explorer.explore ~max_schedules s in
        [
          label;
          string_of_int o.Modelcheck.Explorer.schedules;
          (if o.Modelcheck.Explorer.exhaustive then "yes" else "no");
          (match o.Modelcheck.Explorer.error with
          | None -> "no violation"
          | Some f -> "VIOLATION: " ^ f.Modelcheck.Explorer.reason);
        ])
      scenarios
  in
  Harness.Table.print
    ~headers:[ "scenario (recycle, repeated values)"; "schedules"; "exhaustive"; "verdict" ]
    rows;
  (* multiset-conservation stress under recycling with a tiny value
     domain (maximizing recycled-node value coincidences) *)
  let module L = Deque.List_deque.Lockfree in
  let q = L.make ~recycle:true () in
  let n_vals = 3 in
  let iters = cnt ~quick 40_000 in
  let pushed = Array.init 4 (fun _ -> Array.make n_vals 0) in
  let popped = Array.init 4 (fun _ -> Array.make n_vals 0) in
  let _ =
    Harness.Runner.run_fixed ~threads:4 ~iters (fun ~tid ~rng ~i:_ ->
        let v = Dcas.Splitmix.int rng ~bound:n_vals in
        match Dcas.Splitmix.int rng ~bound:4 with
        | 0 ->
            if L.push_right q v = `Okay then
              pushed.(tid).(v) <- pushed.(tid).(v) + 1
        | 1 ->
            if L.push_left q v = `Okay then
              pushed.(tid).(v) <- pushed.(tid).(v) + 1
        | 2 -> (
            match L.pop_right q with
            | `Value v -> popped.(tid).(v) <- popped.(tid).(v) + 1
            | `Empty -> ())
        | _ -> (
            match L.pop_left q with
            | `Value v -> popped.(tid).(v) <- popped.(tid).(v) + 1
            | `Empty -> ()))
  in
  let remaining = L.unsafe_to_list q in
  let conserved = ref true in
  for v = 0 to n_vals - 1 do
    let p = Array.fold_left (fun a t -> a + t.(v)) 0 pushed in
    let g = Array.fold_left (fun a t -> a + t.(v)) 0 popped in
    let rem = List.length (List.filter (fun x -> x = v) remaining) in
    if p <> g + rem then conserved := false
  done;
  let inv = match L.check_invariant q with Ok () -> "ok" | Error e -> e in
  Printf.printf
    "\nstress (4 threads x %d ops, values in {0,1,2}): multiset conserved = %b, invariant %s\n"
    iters !conserved inv;
  note
    "NEGATIVE RESULT: immediate node reuse produces no observable ABA in\n\
     any explored schedule — every DCAS in the Section 4 algorithm\n\
     (pointer word incl. bit + value cell, or two pointer words) fully\n\
     pins the state it relies on, so a recycled node that matches the\n\
     expectations IS in the expected configuration.  The paper's GC\n\
     assumption therefore buys memory safety (no dangling reads in an\n\
     unmanaged language), not ABA protection, for this algorithm.\n\
     Caveat: bounded exploration (2-3 threads, small windows), not a proof"

(* ------------------------------------------------------------------ *)
(* E21: allocation-lean DCAS2 fast path                               *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated per iteration of [f] on the calling
   domain ([Gc.minor_words] is a per-domain cumulative counter). *)
let minor_words_per_op ~n f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let e21 ~quick =
  header "E21 allocation-lean DCAS2";
  let module M = Dcas.Mem_lockfree in
  let finite f = if Float.is_finite f then f else 0. in
  (* The two-location slow path, single domain, uncontended.  "write"
     changes both words (the shape of a successful push/pop); "half"
     changes one and keeps the other, which is still released to a
     fresh block; "confirm" is a no-op on both (the shape of the
     empty/full boundary confirmations), which the read-only path
     answers without a descriptor. *)
  let quota = if quick then 0.2 else 0.4 in
  let n_alloc = cnt ~quick 100_000 in
  let a = M.make 0 and b = M.make 0 in
  let write () =
    let va = M.get a and vb = M.get b in
    ignore (M.dcas a b va vb (va + 1) (vb + 1))
  in
  let half () =
    let va = M.get a and vb = M.get b in
    ignore (M.dcas a b va vb va (vb + 1))
  in
  let confirm () =
    let va = M.get a and vb = M.get b in
    ignore (M.dcas a b va vb va vb)
  in
  let cases = [ ("write", write); ("half", half); ("confirm", confirm) ] in
  let micro = ns_per_op ~quota cases in
  let alloc_rows =
    List.map
      (fun (op, f) ->
        let mw = minor_words_per_op ~n:n_alloc f in
        M.reset_stats ();
        for _ = 1 to n_alloc do
          f ()
        done;
        let s = M.stats () in
        let per c = float_of_int c /. float_of_int n_alloc in
        let ns = List.assoc op micro in
        emit_json
          (Harness.Json.Obj
             [
               ("experiment", Harness.Json.String "e21");
               ("section", Harness.Json.String "alloc");
               ("op", Harness.Json.String op);
               ("ops_per_sec", Harness.Json.Float (finite (1e9 /. ns)));
               ("ns_per_op", Harness.Json.Float (finite ns));
               ("minor_words_per_op", Harness.Json.Float mw);
               ( "dcas2_hits_per_op",
                 Harness.Json.Float (per s.Dcas.Memory_intf.dcas2_hits) );
               ( "descriptor_allocs_per_op",
                 Harness.Json.Float (per s.Dcas.Memory_intf.descriptor_allocs)
               );
               ( "value_allocs_per_op",
                 Harness.Json.Float (per s.Dcas.Memory_intf.value_allocs) );
             ]);
        [
          op;
          fmt_ns ns;
          Printf.sprintf "%.1f" mw;
          Printf.sprintf "%.2f" (per s.Dcas.Memory_intf.dcas2_hits);
          Printf.sprintf "%.2f" (per s.Dcas.Memory_intf.descriptor_allocs);
          Printf.sprintf "%.2f" (per s.Dcas.Memory_intf.value_allocs);
        ])
      cases
  in
  Harness.Table.print
    ~headers:
      [ "dcas op"; "ns/op"; "minor w/op"; "dcas2/op"; "desc/op"; "value/op" ]
    alloc_rows;
  note
    "uncontended successful DCAS on two int locations; 'half' keeps one\n\
     location's value, which is still released to a fresh block; 'confirm'\n\
     is the no-op shape of the deques' boundary checks, answered from\n\
     three reads with no descriptor"

(* ------------------------------------------------------------------ *)
(* E22: crash-fault tolerance — kill k of n supervised workers         *)
(* ------------------------------------------------------------------ *)

module Crash_sched =
  Worksteal.Scheduler.Make
    (Worksteal.Scheduler.Restrict (Deque.Array_deque.Make (Fault_mem)))

let e22 ~quick =
  header "E22 crash-fault tolerance: kill k of n supervised workers";
  let depth = if quick then 5 else 6 in
  let degree = 3 in
  let leaves = int_of_float (float_of_int degree ** float_of_int depth) in
  let kill_depth = depth - 2 in
  (* One supervised run over the crash-instrumented array deque; the
     caller arms the deaths (targeted tickets or a probabilistic
     storm) via [arm], which receives the worker count. *)
  let supervised_run ~section ~label ~workers ~arm =
    Harness.Fault.reset ();
    Dcas.Mem_lockfree.reset_stats ();
    let counter = Atomic.make 0 in
    let claim = arm ~workers in
    let root ctx =
      let rec node d ctx =
        if d = 0 then Atomic.incr counter
        else begin
          if d = kill_depth then claim ctx;
          for _ = 1 to degree do
            Crash_sched.spawn ctx (node (d - 1))
          done
        end
      in
      node depth ctx
    in
    let wd = Harness.Watchdog.create ~threads:workers ~stall_after:30. () in
    let t0 = Unix.gettimeofday () in
    let r =
      Crash_sched.run_supervised ~workers ~capacity:512 ~watchdog:wd root
    in
    let dt = Unix.gettimeofday () -. t0 in
    Harness.Crash.disarm ();
    let leaves_seen = Atomic.get counter in
    let stalled = if Harness.Watchdog.fired wd then 1 else 0 in
    let ok = if Worksteal.Supervisor.conserved r then 1 else 0 in
    let open Worksteal.Supervisor in
    emit_json
      (Harness.Json.Obj
         [
           ("experiment", Harness.Json.String "e22");
           ("section", Harness.Json.String section);
           ("label", Harness.Json.String label);
           ("workers", Harness.Json.Int workers);
           ( "ops_per_sec",
             Harness.Json.Float (float_of_int r.executed /. dt) );
           ("spawned", Harness.Json.Int r.spawned);
           ("executed", Harness.Json.Int r.executed);
           ("killed", Harness.Json.Int r.killed);
           ("presumed_dead", Harness.Json.Int r.presumed_dead);
           ("adopted", Harness.Json.Int r.adopted);
           ("reconciled", Harness.Json.Int r.reconciled);
           ("replacements", Harness.Json.Int r.replacements);
           ("leaves", Harness.Json.Int leaves);
           ("leaves_seen", Harness.Json.Int leaves_seen);
           ("orphans_helped", Harness.Json.Int r.orphans_helped);
           ( "mid_casn_kills",
             Harness.Json.Int (Harness.Crash.mid_casn_kills ()) );
           ("conserved", Harness.Json.Int ok);
           ("stalled", Harness.Json.Int stalled);
         ]);
    [
      label;
      string_of_int workers;
      fmt_tp (float_of_int r.executed /. dt);
      string_of_int r.spawned;
      string_of_int r.executed;
      string_of_int r.killed;
      string_of_int r.presumed_dead;
      string_of_int r.adopted;
      string_of_int r.reconciled;
      string_of_int r.orphans_helped;
      (if ok = 1 then "ok"
       else Printf.sprintf "VIOLATED %d<>%d+%d" r.spawned r.executed r.reconciled);
      Printf.sprintf "%d/%d" leaves_seen leaves;
    ]
  in
  (* Targeted kill-k-of-n: the first k distinct workers to reach the
     kill depth claim a ticket and die mid-CASN at their next
     DCAS-shaped operation (the push of their next spawn), stranding a
     published descriptor for the survivors to help. *)
  let targeted ~k ~workers =
    let tickets = Atomic.make k in
    let claimed = Array.init workers (fun _ -> Atomic.make false) in
    fun ctx ->
      let w = Crash_sched.worker ctx in
      if
        w < workers
        && Atomic.get tickets > 0
        && Atomic.compare_and_set claimed.(w) false true
      then begin
        let rec take () =
          let t = Atomic.get tickets in
          t > 0 && (Atomic.compare_and_set tickets t (t - 1) || take ())
        in
        if take () then Harness.Crash.kill ~mode:`Mid_casn ~tid:w ()
        else Atomic.set claimed.(w) false
      end
  in
  let rows =
    List.map
      (fun (n, k) ->
        supervised_run ~section:"targeted"
          ~label:(Printf.sprintf "kill %d of %d" k n)
          ~workers:n
          ~arm:(fun ~workers -> targeted ~k ~workers))
      [ (2, 1); (4, 1); (4, 2) ]
  in
  (* Probabilistic storm: every instrumented shared-memory access of
     every worker draws a death verdict from a replayable per-domain
     stream; half the deaths land mid-CASN. *)
  let storm_rows =
    List.map
      (fun (seed, max_kills) ->
        supervised_run ~section:"storm"
          ~label:(Printf.sprintf "storm seed=%#x" seed)
          ~workers:4
          ~arm:(fun ~workers:_ ->
            Harness.Crash.configure ~prob:0.0005 ~mid_casn_prob:0.5
              ~max_kills ~seed ();
            fun _ctx -> ()))
      [ (0xE22A, 2); (0xE22B, 3) ]
  in
  Harness.Table.print
    ~headers:
      [
        "scenario"; "n"; "tasks/s"; "spawned"; "executed"; "killed";
        "presumed"; "adopted"; "reconciled"; "orphans"; "conserved"; "leaves";
      ]
    (rows @ storm_rows);
  note
    "divide-and-conquer tree (degree %d, depth %d, %d leaves) on the\n\
     supervised scheduler over the crash-instrumented array deque;\n\
     killed workers die for good at a shared-memory point (mid-CASN\n\
     where targeted), the supervisor adopts their deques, and leftover\n\
     pending units are reconciled only under the quiescence certificate\n\
     -- conserved means spawned = executed + reconciled exactly"
    degree depth leaves

(* ------------------------------------------------------------------ *)
(* E23: cross-algorithm shootout — the paper's DCAS deques against     *)
(* the single-word-CAS competitors                                     *)
(* ------------------------------------------------------------------ *)

(* Uniform role-aware handle over the four competitors.  The general
   deques run the full mix on every domain; ABP restricts mutation to
   the owner (tid 0) — thief domains convert every draw into a steal,
   the scheduler-shaped workload the structure was designed for. *)
type shoot_inst = {
  sh_op : tid:int -> Harness.Workload.kind -> [ `Pushed | `Popped | `Miss ];
  sh_drain : unit -> int;  (* items left behind, drained quiescently *)
}

type shooter = {
  sh_name : string;
  sh_make : unit -> shoot_inst;
  sh_words : unit -> float;  (* minor words per op, quiescent push+pop *)
}

let e23_prefill = 128
let e23_capacity = 512

let e23_shooters : shooter list =
  let general (type t) name ~(create : unit -> t)
      ~(push_right : t -> int -> Deque.Deque_intf.push_result)
      ~(push_left : t -> int -> Deque.Deque_intf.push_result)
      ~(pop_right : t -> int Deque.Deque_intf.pop_result)
      ~(pop_left : t -> int Deque.Deque_intf.pop_result) () =
    {
      sh_name = name;
      sh_make =
        (fun () ->
          let d = create () in
          for i = 1 to e23_prefill do
            ignore (if i mod 2 = 0 then push_right d i else push_left d i)
          done;
          {
            sh_op =
              (fun ~tid:_ kind ->
                match kind with
                | Harness.Workload.Push_right ->
                    if push_right d 1 = `Okay then `Pushed else `Miss
                | Harness.Workload.Push_left ->
                    if push_left d 1 = `Okay then `Pushed else `Miss
                | Harness.Workload.Pop_right -> (
                    match pop_right d with `Value _ -> `Popped | `Empty -> `Miss)
                | Harness.Workload.Pop_left -> (
                    match pop_left d with `Value _ -> `Popped | `Empty -> `Miss));
            sh_drain =
              (fun () ->
                let n = ref 0 in
                let rec go () =
                  match pop_left d with
                  | `Value _ ->
                      incr n;
                      go ()
                  | `Empty -> ()
                in
                go ();
                !n);
          });
      sh_words =
        (fun () ->
          let d = create () in
          minor_words_per_op ~n:20_000 (fun () ->
              ignore (push_right d 1);
              ignore (pop_right d))
          /. 2.);
    }
  in
  [
    (* the row key predates the removal of the generic-descriptor
       ablation; it stays so [bench --compare] still matches it
       against BENCH_7/8/9 *)
    (let module L = Deque.List_deque.Lockfree in
    general "dcas-list/dcas2"
      ~create:(fun () -> L.make ())
      ~push_right:L.push_right ~push_left:L.push_left ~pop_right:L.pop_right
      ~pop_left:L.pop_left ());
    (let module D = Baselines.St_deque in
    general "st-deque"
      ~create:(fun () -> D.make ())
      ~push_right:D.push_right ~push_left:D.push_left ~pop_right:D.pop_right
      ~pop_left:D.pop_left ());
    (let module D = Baselines.Lock_deque in
    general "lock"
      ~create:(fun () -> D.create ~capacity:e23_capacity ())
      ~push_right:D.push_right ~push_left:D.push_left ~pop_right:D.pop_right
      ~pop_left:D.pop_left ());
    (let module A = Baselines.Abp_deque in
    {
      sh_name = "abp";
      sh_make =
        (fun () ->
          let d = A.create ~capacity:e23_capacity () in
          for i = 1 to e23_prefill do
            ignore (A.push_bottom d i)
          done;
          {
            sh_op =
              (fun ~tid kind ->
                if tid = 0 then
                  match kind with
                  | Harness.Workload.Push_right | Harness.Workload.Push_left ->
                      if A.push_bottom d 1 = `Okay then `Pushed else `Miss
                  | Harness.Workload.Pop_right | Harness.Workload.Pop_left -> (
                      match A.pop_bottom d with
                      | `Value _ -> `Popped
                      | `Empty -> `Miss)
                else
                  match A.steal_retry d with
                  | `Value _ -> `Popped
                  | `Empty -> `Miss);
            sh_drain =
              (fun () ->
                let n = ref 0 in
                let rec go () =
                  match A.pop_bottom d with
                  | `Value _ ->
                      incr n;
                      go ()
                  | `Empty -> ()
                in
                go ();
                !n);
          });
      sh_words =
        (fun () ->
          let d = A.create ~capacity:e23_capacity () in
          minor_words_per_op ~n:20_000 (fun () ->
              ignore (A.push_bottom d 1);
              ignore (A.pop_bottom d))
          /. 2.);
    });
  ]

(* The empirical lock-freedom probe on the competitor: the ST deque
   over the freezer-instrumented memory (via the one-entry-casn shim),
   two of three domains parked mid-operation, the survivor must still
   complete its quota. *)
module Probe_st = Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Fault_mem))

let e23_frozen_probe () =
  Harness.Fault.reset ();
  let d = Probe_st.make () in
  for i = 1 to 16 do
    ignore (Probe_st.push_right d i)
  done;
  let threads = 3 in
  let target_ops = 1_000 in
  let stop = Atomic.make false in
  let counts = Array.init threads (fun _ -> Dcas.Padding.make_atomic 0) in
  let worker tid () =
    Harness.Fault.enroll ~tid;
    let rng = Dcas.Splitmix.create ~seed:(0xE23 + tid) in
    while not (Atomic.get stop) do
      (match Harness.Workload.draw Harness.Workload.balanced rng with
      | Harness.Workload.Push_right -> ignore (Probe_st.push_right d 1)
      | Harness.Workload.Push_left -> ignore (Probe_st.push_left d 1)
      | Harness.Workload.Pop_right -> ignore (Probe_st.pop_right d)
      | Harness.Workload.Pop_left -> ignore (Probe_st.pop_left d));
      Atomic.incr counts.(tid)
    done
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    Array.exists (fun c -> Atomic.get c < 10) counts
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  for tid = 1 to threads - 1 do
    Harness.Stall.Freezer.freeze ~tid
  done;
  while
    Harness.Stall.Freezer.frozen_now () < threads - 1
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  let c0 = Atomic.get counts.(0) in
  let t0 = Unix.gettimeofday () in
  while
    Atomic.get counts.(0) < c0 + target_ops
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  let survivor_ops = Atomic.get counts.(0) - c0 in
  let dt = Unix.gettimeofday () -. t0 in
  let parks = Harness.Stall.Freezer.freeze_hits () in
  Harness.Stall.Freezer.thaw_all ();
  Atomic.set stop true;
  List.iter Domain.join domains;
  Harness.Fault.reset ();
  let completed = survivor_ops >= target_ops in
  let tp = if dt > 0. then float_of_int survivor_ops /. dt else 0. in
  emit_json
    (Harness.Json.Obj
       [
         ("experiment", Harness.Json.String "e23");
         ("section", Harness.Json.String "frozen");
         ("backend", Harness.Json.String "st-deque");
         ("domains", Harness.Json.Int threads);
         ("frozen", Harness.Json.Int (threads - 1));
         ("survivor_ops", Harness.Json.Int survivor_ops);
         ("parks", Harness.Json.Int parks);
         ("ops_per_sec", Harness.Json.Float tp);
         ("completed", Harness.Json.Int (if completed then 1 else 0));
       ]);
  [
    "st-deque";
    Printf.sprintf "%d of %d frozen" (threads - 1) threads;
    fmt_tp tp;
    string_of_int survivor_ops;
    string_of_int parks;
    (if completed then "ok" else "STUCK");
  ]

let e23 ~quick =
  header
    "E23 cross-algorithm shootout: DCAS deques vs single-word-CAS competitors";
  let duration = dur ~quick 0.3 in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let mixes =
    [
      ("balanced", Harness.Workload.balanced);
      ("push-heavy", Harness.Workload.push_heavy);
    ]
  in
  let rows =
    List.concat_map
      (fun sh ->
        let words = sh.sh_words () in
        List.concat_map
          (fun (mix_name, mix) ->
            List.map
              (fun threads ->
                let inst = sh.sh_make () in
                let pushed = Dcas.Padding.make_atomic 0 in
                let popped = Dcas.Padding.make_atomic 0 in
                let hist = Dcas.Histogram.create () in
                let group = 64 in
                let r =
                  Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
                      let t0 = Harness.Metrics.now () in
                      let pu = ref 0 and po = ref 0 in
                      for _ = 1 to group do
                        match inst.sh_op ~tid (Harness.Workload.draw mix rng) with
                        | `Pushed -> incr pu
                        | `Popped -> incr po
                        | `Miss -> ()
                      done;
                      let dt_ns = (Harness.Metrics.now () -. t0) *. 1e9 in
                      Dcas.Histogram.record hist
                        (int_of_float (dt_ns /. float_of_int group));
                      ignore (Atomic.fetch_and_add pushed !pu);
                      ignore (Atomic.fetch_and_add popped !po))
                in
                let remaining = inst.sh_drain () in
                let run_pushed = Atomic.get pushed in
                let total_pushed = run_pushed + e23_prefill in
                let popped = Atomic.get popped in
                let conserved = total_pushed = popped + remaining in
                let tp =
                  float_of_int (run_pushed + popped) /. r.Harness.Runner.elapsed
                in
                let p50 = Dcas.Histogram.quantile hist 0.5 in
                let p99 = Dcas.Histogram.quantile hist 0.99 in
                emit_json
                  (Harness.Json.Obj
                     [
                       ("experiment", Harness.Json.String "e23");
                       ("section", Harness.Json.String "shootout");
                       ("backend", Harness.Json.String sh.sh_name);
                       ("mix", Harness.Json.String mix_name);
                       ("domains", Harness.Json.Int threads);
                       ("ops_per_sec", Harness.Json.Float tp);
                       ("p50_ns", Harness.Json.Float p50);
                       ("p99_ns", Harness.Json.Float p99);
                       ("minor_words_per_op", Harness.Json.Float words);
                       ("pushed", Harness.Json.Int total_pushed);
                       ("popped", Harness.Json.Int popped);
                       ("remaining", Harness.Json.Int remaining);
                       ( "conserved",
                         Harness.Json.Int (if conserved then 1 else 0) );
                     ]);
                [
                  sh.sh_name;
                  mix_name;
                  string_of_int threads;
                  fmt_tp tp;
                  fmt_q p50;
                  fmt_q p99;
                  Printf.sprintf "%.1f" words;
                  (if conserved then "ok"
                   else
                     Printf.sprintf "VIOLATED %d<>%d+%d" total_pushed popped
                       remaining);
                ])
              domain_counts)
          mixes)
      e23_shooters
  in
  Harness.Table.print
    ~headers:
      [
        "backend"; "mix"; "domains"; "ops/s"; "p50/op"; "p99/op"; "minor w/op";
        "conserved";
      ]
    rows;
  note
    "%d-item prefill, %.2fs per cell; ABP runs owner-only mutation with\n\
     thieves stealing; 'minor w/op' is a quiescent single-domain\n\
     push+pop average; conservation counts prefill + successful pushes\n\
     against successful pops + the drained remainder"
    e23_prefill duration;
  Harness.Table.print
    ~headers:[ "backend"; "adversary"; "ops/s"; "survivor ops"; "parks"; "lock-free" ]
    [ e23_frozen_probe () ];
  note
    "frozen-peer probe: ST deque over the freezer-instrumented memory;\n\
     the survivor must complete 1000 operations while both peers sit\n\
     parked mid-operation at a shared-memory access point"

(* ------------------------------------------------------------------ *)
(* E24/E25: the sharded-service soak under live fault storms           *)
(* ------------------------------------------------------------------ *)

(* The full fault-storm substrate under the sharded service: one
   fault-injecting memory carrying seeded chaos (spurious DCAS
   failures), freezes and fail-stop crashes — the injectors E9, E18
   and E22 exercise separately, composed. *)
module Soak_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)

module Soak_service =
  Worksteal.Shard_service.Make (Deque.Array_deque.Make (Soak_mem))

(* Phase-tagged service-time histograms: successful operations only —
   the SLO is on served requests, not on consumers' empty scans —
   split calm/fault by a flag the storm driver flips.  Every worker
   domain records into the same two histograms. *)
type soak_latency = {
  fault_phase : bool Atomic.t;
  calm_h : Dcas.Histogram.t;
  fault_h : Dcas.Histogram.t;
}

let soak_latency () =
  {
    fault_phase = Atomic.make false;
    calm_h = Dcas.Histogram.create ();
    fault_h = Dcas.Histogram.create ();
  }

let record_served l ~ns =
  Dcas.Histogram.record
    (if Atomic.get l.fault_phase then l.fault_h else l.calm_h)
    (int_of_float ns)

let on_served_push l ~tid:_ ~ns = function
  | `Okay -> record_served l ~ns
  | `Full | `Timeout -> ()

let on_served_pop l ~tid:_ ~ns = function
  | `Value _ -> record_served l ~ns
  | `Empty | `Timeout -> ()

(* recovery-latency quantiles over the per-event list *)
let recovery_q rs p =
  match List.sort compare rs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let i = Float.to_int ((p *. float_of_int (n - 1)) +. 0.5) in
      List.nth sorted (min (n - 1) (max 0 i))

(* E24's and E25's storm cells arm the same chaos. *)
let soak_chaos = Harness.Storm.Chaos { fail_prob = 0.002; seed = 0xC4A05 }

(* One soak cell.  The driver runs [windows] (none in the calm cell)
   on the calling domain while traffic flows, then a calm recovery
   tail of a third of [duration].  The cell starts from a
   [Fault.reset], so every fault counter it reads is its own.  Emits
   the JSON row and returns the table row. *)
let soak_cell ~id ~label ~duration ~(cfg : Worksteal.Shard_service.config)
    windows =
  Harness.Fault.reset ();
  let lat = soak_latency () in
  let third = duration /. 3. in
  let landings = ref [] in
  let driver () =
    match windows with
    | [] -> Unix.sleepf duration
    | _ ->
        landings :=
          Harness.Storm.run
            ~on_active:(fun n -> Atomic.set lat.fault_phase (n > 0))
            ~settle:(Float.min 0.1 third) windows;
        Atomic.set lat.fault_phase false;
        Unix.sleepf third
  in
  let r =
    Soak_service.run ~config:cfg ~on_push:(on_served_push lat)
      ~on_pop:(on_served_pop lat) ~driver ~duration ()
  in
  let freezes = Harness.Stall.Freezer.freeze_hits () in
  let spurious = Harness.Chaos.spurious () in
  let zombie_bites = Harness.Stall.Zombie.bites () in
  let landed =
    List.length (List.filter (fun l -> l.Harness.Storm.landed) !landings)
  in
  Harness.Fault.reset ();
  let open Worksteal.Shard_service in
  let q = Dcas.Histogram.quantile in
  let ch = lat.calm_h and fh = lat.fault_h in
  let conserved = if conserved r then 1 else 0 in
  let tp =
    if r.elapsed > 0. then float_of_int (r.pushed_ok + r.executed) /. r.elapsed
    else 0.
  in
  let imbalance =
    (Harness.Metrics.Starvation.of_counts r.per_shard_popped).imbalance
  in
  let shed_total = shed r in
  let shed_rate =
    if r.spawned > 0 then float_of_int shed_total /. float_of_int r.spawned
    else 0.
  in
  let recovery_max = List.fold_left Float.max 0. r.recoveries in
  let open Harness.Json in
  emit_json
    (Obj
       [
         ("experiment", String id);
         ("section", String "soak");
         ("cell", String label);
         ("shards", Int cfg.shards);
         ("producers", Int cfg.producers);
         ("consumers", Int cfg.consumers);
         ("rate", Float cfg.rate);
         ("deadline_s", Float (Option.value ~default:0. cfg.deadline));
         ("elapsed_s", Float r.elapsed);
         ("ops_per_sec", Float tp);
         ("spawned", Int r.spawned);
         ("executed", Int r.executed);
         ("reconciled", Int r.reconciled);
         ("shed_admission", Int r.shed_admission);
         ("shed_expired", Int r.shed_expired);
         ("shed_rate", Float shed_rate);
         ("leftover", Int r.leftover);
         ("conserved", Int conserved);
         ("pushed_ok", Int r.pushed_ok);
         ("push_full", Int r.push_full);
         ("timeouts", Int r.timeouts);
         ("overshoot_max_ns", Int r.overshoot_max_ns);
         ("killed", Int r.killed);
         ("zombies_fenced", Int r.zombies_fenced);
         ("zombie_bites", Int zombie_bites);
         ("replacements", Int r.replacements);
         ("adoptions", Int r.adoptions);
         ("adopted_items", Int r.adopted_items);
         ("orphans_helped", Int r.orphans_helped);
         ("freezes", Int freezes);
         ("chaos_spurious", Int spurious);
         ("storm_windows", Int (List.length windows));
         ("storm_landed", Int landed);
         ("recoveries", Int (List.length r.recoveries));
         ("recovery_p50_s", Float (recovery_q r.recoveries 0.5));
         ("recovery_p90_s", Float (recovery_q r.recoveries 0.9));
         ("recovery_max_s", Float recovery_max);
         ("calm_p50_ns", Float (q ch 0.5));
         ("calm_p99_ns", Float (q ch 0.99));
         ("calm_p999_ns", Float (q ch 0.999));
         ("fault_p50_ns", Float (q fh 0.5));
         ("fault_p99_ns", Float (q fh 0.99));
         ("fault_p999_ns", Float (q fh 0.999));
         ("imbalance", Float imbalance);
       ]);
  [
    label;
    fmt_tp tp;
    fmt_q (q ch 0.99);
    fmt_q (q fh 0.99);
    Printf.sprintf "%.1f%%" (shed_rate *. 100.);
    string_of_int r.overshoot_max_ns;
    string_of_int r.killed;
    string_of_int r.zombies_fenced;
    string_of_int freezes;
    Printf.sprintf "%d/%d" landed (List.length windows);
    (if recovery_max = 0. then "-" else Printf.sprintf "%.3fs" recovery_max);
    (if conserved = 1 then "ok"
     else
       Printf.sprintf "VIOLATED %d<>%d+%d+%d (+%d left)" r.spawned r.executed
         r.reconciled shed_total r.leftover);
  ]

(* A soak: a calm cell, then a storm cell running [windows], one row
   each, in one table. *)
let soak ~id ~duration ~(cfg : Worksteal.Shard_service.config) ~windows
    ~about =
  (* bind in sequence: list literals evaluate right-to-left, and the
     calm cell must run first (its row is the storm's baseline) *)
  let calm_row = soak_cell ~id ~label:"calm" ~duration ~cfg [] in
  let storm_row = soak_cell ~id ~label:"storm" ~duration ~cfg windows in
  Harness.Table.print
    ~headers:
      [
        "cell"; "ops/s"; "calm p99"; "fault p99"; "shed"; "overshoot ns";
        "killed"; "zfenced"; "freezes"; "landed"; "recovery"; "conserved";
      ]
    [ calm_row; storm_row ];
  note
    "%d shards (%d producers + %d consumers + monitor) over the\n\
     fault-injecting substrate, %.0f arrivals/s per producer in bursts\n\
     of %d, %.1fs per cell;\n\
     %s;\n\
     latencies are successful operations only, split calm/fault by storm\n\
     phase; conserved means spawned = executed + reconciled + shed and a\n\
     zero-leftover drain"
    cfg.shards cfg.producers cfg.consumers cfg.rate cfg.burst duration about

(* E24: the storm cell's middle third runs seeded chaos, freezes
   producer 0 briefly and then kills the first consumer mid-CASN. *)
let e24 ~quick =
  header "E24 sharded service soak: SLO-gated latency under live fault storms";
  let duration = dur ~quick 2.0 in
  let cfg =
    {
      Worksteal.Shard_service.default with
      shards = 4;
      producers = 2;
      consumers = 2;
      capacity = 256;
      rate = 4_000.;
      (* per-producer open-loop arrivals/s; bursty token bucket *)
      burst = 16;
      urgent_share = 0.15;
      seed = 0xE24;
      (* silence detection off: on an oversubscribed box a busy-but-
         alive worker can easily go quiet past any threshold, and a
         false presumed-dead would make the kill count nondeterministic;
         deaths certified by Died still trigger adoption + replacement *)
      sup = { Worksteal.Supervisor.default with silence_after = 0. };
    }
  in
  let third = duration /. 3. in
  let freeze = Float.min 0.05 (third /. 4.) in
  soak ~id:"e24" ~duration ~cfg
    ~windows:
      Harness.Storm.
        [
          { at = third; hold = third; fault = soak_chaos };
          { at = third; hold = freeze; fault = Freeze { tid = 0 } };
          {
            at = third +. freeze;
            hold = 0.;
            fault = Kill { tid = cfg.producers; mid_casn = true };
          };
        ]
    ~about:
      "the storm cell freezes producer 0, then kills one consumer mid-CASN\n\
       (its shard is quarantined, drained into survivors and revived for the\n\
       replacement), under seeded spurious-DCAS chaos for the middle third"

(* E25: E24 with every remaining failure mode armed at once:
   per-request deadlines with admission control (sheds enter the
   conservation law as first-class timed-out outcomes), a zombified
   consumer that keeps ticking its heartbeat while doing no work
   (progress-based fencing must catch it — silence detection cannot),
   and overlapping kill, freeze, zombie and chaos windows with seeded
   jitter. *)
let e25 ~quick =
  header "E25 multi-storm survival soak: deadlines, zombies, fencing";
  let duration = dur ~quick 2.4 in
  let cfg =
    {
      Worksteal.Shard_service.default with
      shards = 4;
      producers = 2;
      consumers = 3;
      capacity = 256;
      rate = 4_000.;
      burst = 16;
      urgent_share = 0.15;
      deadline = Some 0.05;
      (* 50ms budget per request, stamped at admission *)
      admission = true;
      seed = 0xE25;
      sup =
        {
          Worksteal.Supervisor.default with
          (* silence detection off for E24's reason (an oversubscribed
             box makes busy-but-alive quiet spells nondeterministic);
             zombie detection is progress-based and stays armed — it is
             the detector this soak exists to exercise *)
          silence_after = 0.;
          zombie_after = 0.08;
        };
    }
  in
  let third = duration /. 3. in
  soak ~id:"e25" ~duration ~cfg
    ~windows:
      (Harness.Storm.jittered ~seed:0xE25 ~jitter:(third /. 20.)
         Harness.Storm.
           [
             { at = third; hold = third; fault = soak_chaos };
             {
               at = third *. 1.1;
               hold = third *. 0.8;
               fault = Zombie { tid = cfg.producers + cfg.consumers - 1 };
             };
             {
               at = third *. 1.3;
               hold = Float.min 0.05 (third /. 4.);
               fault = Freeze { tid = 0 };
             };
             {
               at = third *. 1.5;
               hold = third *. 0.2;
               fault = Kill { tid = cfg.producers; mid_casn = true };
             };
           ])
    ~about:
      "50ms request deadlines with p99-sojourn admission control; the storm\n\
       cell runs a jittered schedule of four overlapping windows — seeded\n\
       chaos, a zombified consumer (ticking heartbeat, zero progress: only\n\
       the progress-based detector can fence it), a frozen producer and a\n\
       mid-CASN consumer kill — and must land every window, fence the zombie\n\
       and serve no op past its stamped deadline"

(* ------------------------------------------------------------------ *)

type experiment = { id : string; title : string; run : quick:bool -> unit }

let all : experiment list =
  [
    { id = "e1"; title = "array boundary behaviour"; run = e1 };
    { id = "e2"; title = "contended pops (Figs 5/6)"; run = e2 };
    { id = "e3"; title = "list empty states (Figs 9/16)"; run = e3 };
    { id = "e4"; title = "primitive cost hierarchy"; run = e4 };
    { id = "e5"; title = "two-end independence"; run = e5 };
    { id = "e6"; title = "Greenwald v2 flaw"; run = e6 };
    { id = "e7"; title = "array vs list throughput"; run = e7 };
    { id = "e7b"; title = "latency distribution"; run = e7_latency };
    { id = "e8"; title = "work stealing"; run = e8 };
    { id = "e9"; title = "stall resilience"; run = e9 };
    { id = "e10"; title = "hints ablation"; run = e10 };
    { id = "e11"; title = "deleted-bit vs dummy"; run = e11 };
    { id = "e12"; title = "DCAS substrates"; run = e12 };
    { id = "e13"; title = "verification volume"; run = e13 };
    { id = "e14"; title = "lock-freedom stall points"; run = e14 };
    { id = "e15"; title = "substrate scaling sweep"; run = e15 };
    { id = "e16"; title = "GC assumption probe"; run = e16 };
    { id = "e17"; title = "3-word CAS extension"; run = e17 };
    { id = "e21"; title = "DCAS2 fast path: latency/alloc"; run = e21 };
    {
      id = "e22";
      title = "crash-fault tolerance: kill k of n supervised workers";
      run = e22;
    };
    {
      id = "e23";
      title = "cross-algorithm shootout: DCAS vs single-word-CAS";
      run = e23;
    };
    {
      id = "e24";
      title = "sharded service soak: SLO under live fault storms";
      run = e24;
    };
    {
      id = "e25";
      title = "multi-storm survival soak: deadlines, zombies, fencing";
      run = e25;
    };
  ]
