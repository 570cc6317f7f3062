(* Stress / throughput CLI over every deque implementation.

     dune exec bin/stress.exe -- --impl list-lockfree --threads 4 \
         --duration 2 --mix balanced

   Prints throughput, per-thread fairness (starvation) figures and, for
   implementations over the lock-free DCAS substrate, the DCAS
   attempt/success counters accumulated during the run.

   A progress watchdog (--watchdog SEC, default 10s, 0 disables)
   monitors the workers' completed-op counters on a separate domain:
   if nothing progresses for that long, it dumps a diagnostic snapshot
   (per-thread op counts, substrate counters) to stderr and the run
   exits with code 3 — a stalled structure becomes a report, not a CI
   timeout.

   Crash injection (--crash-prob P, --crash-workers K) arms fail-stop
   deaths over the lock-free implementations: each worker may die for
   good at an instrumented shared-memory point — mid-CASN with a
   published descriptor where the draw lands on a DCAS-shaped
   operation — and at most K workers die in total.  After the run a
   machine-readable "crash-summary:" line reports the deaths and the
   orphaned descriptors the survivors helped.

   Exit codes: 0 ok; 2 usage; 3 the watchdog fired (survivors
   stalled); 4 a crash went unrecovered (orphaned descriptors were
   not all helped, or the runner and injector disagree on deaths). *)

open Cmdliner

(* An implementation: its --impl name and a fresh instance's handle. *)
type impl = { name : string; fresh : capacity:int -> int Deque.Deque_intf.handle }

let impl name f = { name; fresh = Deque.Deque_intf.create f }

(* A list deque that recycles its nodes (experiment E16). *)
let recycling name (module L : Deque.List_deque.ALGORITHM) =
  let module W = Deque.Deque_intf.Wrap (L) in
  { name; fresh = (fun ~capacity:_ -> W.handle (L.make ~recycle:true ())) }

(* The array deque behind the Spill policy: a full primary overflows
   into the unbounded list. *)
let policy_spill name =
  let module P = Deque.Policy.Make (Deque.Array_deque.Lockfree) in
  {
    name;
    fresh =
      (fun ~capacity ->
        let d = P.create ~full:Deque.Policy.Spill ~capacity () in
        {
          name = P.name;
          push_right = (fun v -> P.push_simple d ~side:`Right v);
          push_left = (fun v -> P.push_simple d ~side:`Left v);
          pop_right = (fun () -> P.pop_simple d ~side:`Right);
          pop_left = (fun () -> P.pop_simple d ~side:`Left);
          contents = None;
          invariant = None;
        });
  }

(* Sharded service front ends (Core.Sharded): --shards K deques behind
   affinity routing, Spill shards so a full home overflows rather than
   rejects.  Pushes route by value (spread), pops by a shared rotating
   key (each pop homes somewhere and, finding its home empty, steals
   one item from the rest); the left-end ops map to the urgent
   priority lane. *)
let shards_n = ref 4

let sharded name (module D : Deque.Deque_intf.S) =
  let module Sh = Deque.Sharded.Make (D) in
  let rr = ref 0 in
  let key () =
    (* racy shared counter: only a routing key, any value is valid *)
    incr rr;
    !rr
  in
  (* no deadline is configured, so `Timeout is unreachable *)
  let push urgent t v : Deque.Deque_intf.push_result =
    match Sh.push ~urgent t ~key:v v with
    | `Okay -> `Okay
    | `Full | `Timeout -> `Full
  in
  let pop urgent t : int Deque.Deque_intf.pop_result =
    match Sh.pop ~urgent t ~key:(key ()) with
    | `Value v -> `Value v
    | `Empty | `Timeout -> `Empty
  in
  {
    name;
    fresh =
      (fun ~capacity ->
        let t =
          Sh.create ~full:Deque.Policy.Spill ~shards:!shards_n ~capacity ()
        in
        {
          name = Sh.name;
          push_right = push false t;
          push_left = push true t;
          pop_right = (fun () -> pop false t);
          pop_left = (fun () -> pop true t);
          contents = None;
          invariant = None;
        });
  }

let impls : impl list =
  [
    impl "array-lockfree" (module Deque.Array_deque.Lockfree);
    impl "array-locked" (module Deque.Array_deque.Locked);
    impl "list-lockfree" (module Deque.List_deque.Lockfree);
    impl "dummy-lockfree" (module Deque.List_deque_dummy.Lockfree);
    impl "3cas-lockfree" (module Deque.List_deque_casn.Lockfree);
    recycling "list-recycle" (module Deque.List_deque.Lockfree);
    policy_spill "array-policy-spill";
    impl "lock" (module Baselines.Lock_deque);
    impl "spin" (module Baselines.Spin_deque);
    impl "greenwald1" (module Baselines.Greenwald_v1.Lockfree);
    impl "st-deque" (module Baselines.St_deque);
    sharded "sharded-array" (module Deque.Array_deque.Lockfree);
    sharded "sharded-list" (module Deque.List_deque.Lockfree);
  ]

(* Crash-instrumented variants of the lock-free implementations: same
   algorithms over [Mem_lockfree] behind [Harness.Fault.Mem], so
   an armed worker dies at a shared-memory point and the others keep
   going.  Selected (by the same --impl names) when --crash-prob is
   positive; every worker enrolls with the injector. *)
module Crash_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module Crash_array = Deque.Array_deque.Make (Crash_mem)
module Crash_list = Deque.List_deque.Make (Crash_mem)
module Crash_dummy = Deque.List_deque_dummy.Make (Crash_mem)
module Crash_casn = Deque.List_deque_casn.Make (Crash_mem)

let crash_impls : impl list =
  [
    impl "array-lockfree" (module Crash_array);
    impl "list-lockfree" (module Crash_list);
    impl "dummy-lockfree" (module Crash_dummy);
    impl "3cas-lockfree" (module Crash_casn);
    recycling "list-recycle" (module Crash_list);
    sharded "sharded-array" (module Crash_array);
    sharded "sharded-list" (module Crash_list);
  ]

let mix_of = function
  | "balanced" -> Ok Harness.Workload.balanced
  | "push-heavy" -> Ok Harness.Workload.push_heavy
  | "pop-heavy" -> Ok Harness.Workload.pop_heavy
  | "fifo" -> Ok Harness.Workload.fifo
  | "lifo" -> Ok Harness.Workload.lifo_right
  | m -> Error ("unknown mix: " ^ m)

let run impl_name threads duration mix_name capacity prefill watchdog_s
    crash_prob crash_workers crash_seed shards =
  if shards < 1 then begin
    prerr_endline "--shards must be >= 1";
    exit 2
  end;
  shards_n := shards;
  let crashing = crash_prob > 0. in
  let table = if crashing then crash_impls else impls in
  match
    (List.find_opt (fun i -> i.name = impl_name) table, mix_of mix_name)
  with
  | None, _ ->
      if crashing && List.exists (fun i -> i.name = impl_name) impls then
        Printf.eprintf
          "%s has no crash-instrumented variant (have: %s)\n" impl_name
          (String.concat ", " (List.map (fun i -> i.name) crash_impls))
      else
        Printf.eprintf "unknown implementation %s (have: %s)\n" impl_name
          (String.concat ", " (List.map (fun i -> i.name) table));
      2
  | _, Error e ->
      prerr_endline e;
      2
  | Some impl, Ok mix ->
      Dcas.Mem_lockfree.reset_stats ();
      (* cap deaths below the thread count so survivors remain to help
         orphans and keep the watchdog ticking *)
      let max_kills = min crash_workers (threads - 1) in
      if crashing then begin
        Harness.Fault.reset ();
        Harness.Crash.configure ~prob:crash_prob ~mid_casn_prob:0.5
          ~max_kills ~seed:crash_seed ()
      end;
      let watchdog =
        if watchdog_s <= 0. then None
        else
          Some
            (Harness.Watchdog.create ~stall_after:watchdog_s
               ~stats:(fun () -> Dcas.Mem_lockfree.stats ())
               ~threads ())
      in
      let h = impl.fresh ~capacity in
      for i = 1 to prefill do
        match if i mod 2 = 0 then h.push_right i else h.push_left i with
        | `Okay -> ()
        | `Full -> invalid_arg "prefill exceeds capacity"
      done;
      let r =
        Harness.Runner.run ?watchdog ~threads ~duration (fun ~tid ~rng ->
            if crashing && tid < Harness.Fault.max_slots then
              Harness.Fault.enroll ~tid;
            ignore (Harness.Workload.apply h mix rng tid))
      in
      if crashing then Harness.Crash.disarm ();
      Printf.printf "%s: %s ops/s (%d threads, %.1fs, mix %s)\n" impl.name
        (Harness.Table.ops_per_sec (Harness.Runner.throughput r))
        threads duration mix_name;
      Printf.printf "fairness: %s\n"
        (Format.asprintf "%a" Harness.Metrics.Starvation.pp
           (Harness.Metrics.Starvation.of_counts r.Harness.Runner.per_thread));
      let s = Dcas.Mem_lockfree.stats () in
      if s.Dcas.Memory_intf.dcas_attempts > 0 then
        Printf.printf "lock-free substrate: %s\n"
          (Format.asprintf "%a" Dcas.Memory_intf.pp_stats s);
      let stalled =
        match watchdog with
        | Some w when Harness.Watchdog.fired w ->
            Printf.eprintf "watchdog fired %d time(s); failing the run\n"
              (Harness.Watchdog.stalls w);
            true
        | Some _ | None -> false
      in
      if not crashing then if stalled then 3 else 0
      else begin
        let killed = Harness.Crash.kills () in
        let mid_casn = Harness.Crash.mid_casn_kills () in
        let orphans_helped = Dcas.Mem_lockfree.help_orphans () in
        let runner_deaths = Harness.Runner.deaths r in
        Printf.printf
          "crash-summary: killed=%d mid_casn=%d orphans_helped=%d \
           runner_deaths=%d survivors=%d\n"
          killed mid_casn orphans_helped runner_deaths
          (threads - runner_deaths);
        if stalled then 3
        else if orphans_helped <> mid_casn || runner_deaths <> killed then begin
          Printf.eprintf
            "unrecovered crash: %d mid-CASN deaths but %d orphans helped \
             (runner saw %d of %d deaths)\n"
            mid_casn orphans_helped runner_deaths killed;
          4
        end
        else 0
      end

let impl_arg =
  Arg.(
    value
    & opt string "array-lockfree"
    & info [ "impl"; "i" ] ~docv:"IMPL" ~doc:"Implementation to drive.")

let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"N" ~doc:"Domains.")

let duration =
  Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~docv:"SEC" ~doc:"Seconds.")

let mix =
  Arg.(
    value
    & opt string "balanced"
    & info [ "mix"; "m" ] ~docv:"MIX"
        ~doc:"balanced, push-heavy, pop-heavy, fifo, lifo.")

let capacity =
  Arg.(value & opt int 1024 & info [ "capacity"; "c" ] ~docv:"N" ~doc:"Capacity.")

let prefill =
  Arg.(value & opt int 512 & info [ "prefill"; "p" ] ~docv:"N" ~doc:"Initial items.")

let watchdog_s =
  Arg.(
    value & opt float 10.
    & info [ "watchdog"; "w" ] ~docv:"SEC"
        ~doc:
          "Fail with a diagnostic (exit 3) if no worker completes an \
           operation for SEC seconds; 0 disables.")

let crash_prob =
  Arg.(
    value & opt float 0.
    & info [ "crash-prob" ] ~docv:"P"
        ~doc:
          "Per-instrumented-access probability that a worker dies for \
           good (fail-stop, possibly mid-CASN); 0 disables crash \
           injection.  Positive values select the crash-instrumented \
           variant of the implementation and print a crash-summary \
           line; exit 4 if recovery fails.")

let crash_workers =
  Arg.(
    value & opt int 1
    & info [ "crash-workers" ] ~docv:"K"
        ~doc:
          "Kill at most K workers (capped at threads - 1 so survivors \
           remain).")

let crash_seed =
  Arg.(
    value & opt int 0xE22
    & info [ "crash-seed" ] ~docv:"SEED"
        ~doc:"Seed for the replayable per-domain death draws.")

let shards =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Shard count for the sharded-* implementations (K policy-\
           wrapped deques behind affinity routing; --capacity is \
           per-shard).  Ignored by the single-structure \
           implementations.")

let cmd =
  let doc = "multi-domain deque throughput" in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      const run $ impl_arg $ threads $ duration $ mix $ capacity $ prefill
      $ watchdog_s $ crash_prob $ crash_workers $ crash_seed $ shards)

let () = exit (Cmd.eval' cmd)
