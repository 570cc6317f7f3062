(* Model-checker CLI: explore all interleavings of scripted deque
   operations against any of the implementations.

     dune exec bin/explore.exe -- --algo list --prefill 1,2 \
         --setup qr,ql --thread pr:3 --thread pl:4

   Scripts use a tiny operation DSL, comma-separated per thread:

     pr:V  pushRight(V)      pl:V  pushLeft(V)
     qr    popRight()        ql    popLeft()

   Modes: exhaustive DFS (default), random sampling (--sample N), and
   the lock-freedom check (--victim I freezes thread I at every one of
   its reachable step counts and requires the others to finish). *)

open Cmdliner

let parse_ops s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc tok ->
           match acc with
           | Error _ as e -> e
           | Ok ops -> (
               match Spec.Op.of_token tok with
               | Ok op -> Ok (op :: ops)
               | Error e -> Error (`Msg e)))
         (Ok [])
    |> Result.map List.rev

let parse_ints s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc tok ->
           match (acc, int_of_string_opt tok) with
           | (Error _ as e), _ -> e
           | Ok xs, Some v -> Ok (v :: xs)
           | Ok _, None -> Error (`Msg ("bad integer " ^ tok)))
         (Ok [])
    |> Result.map List.rev

let ops_conv =
  Arg.conv
    ( parse_ops,
      fun ppf ops ->
        Format.fprintf ppf "%s"
          (String.concat ","
             (List.map
                (fun op ->
                  Format.asprintf "%a" (Spec.Op.pp_op Format.pp_print_int) op)
                ops)) )

let ints_conv =
  Arg.conv
    ( parse_ints,
      fun ppf xs ->
        Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int xs))
    )

let scenario_of ~algo ~length ~prefill ~setup ~chaos_fail ~chaos_freeze
    ~chaos_freeze_spins ~chaos_seed ~shards ~adopt_token ~shed_token ~threads =
  let threads = if threads = [] then [ [ Spec.Op.Pop_right ] ] else threads in
  match algo with
  | "array" ->
      Ok
        (Modelcheck.Scenario.array_deque ~name:"cli" ~length ~prefill ~setup
           threads)
  | "array-no-hints" ->
      Ok
        (Modelcheck.Scenario.array_deque ~hints:false ~name:"cli" ~length
           ~prefill ~setup threads)
  | "list" ->
      Ok (Modelcheck.Scenario.list_deque ~name:"cli" ~prefill ~setup threads)
  | "list-recycle" ->
      Ok
        (Modelcheck.Scenario.list_deque ~recycle:true ~name:"cli" ~prefill
           ~setup threads)
  | "3cas" ->
      Ok
        (Modelcheck.Scenario.list_deque_casn ~name:"cli" ~prefill ~setup
           threads)
  | "dummy" ->
      Ok
        (Modelcheck.Scenario.list_deque_dummy ~name:"cli" ~prefill ~setup
           threads)
  | "greenwald1" ->
      Ok
        (Modelcheck.Scenario.greenwald_v1 ~name:"cli" ~length ~prefill ~setup
           threads)
  | "greenwald2" ->
      Ok
        (Modelcheck.Scenario.greenwald_v2 ~name:"cli" ~length ~prefill ~setup
           threads)
  | "list-broken" ->
      Ok
        (Modelcheck.Scenario.list_deque_buggy ~name:"cli" ~prefill ~setup
           threads)
  | "list-chaos" ->
      Ok
        (Modelcheck.Scenario.list_deque_chaos ~fail_prob:chaos_fail
           ~freeze_prob:chaos_freeze ~freeze_spins:chaos_freeze_spins
           ~chaos_seed ~name:"cli" ~prefill ~setup threads)
  | "st" -> Ok (Modelcheck.Scenario.st_deque ~name:"cli" ~prefill ~setup threads)
  | "st-chaos" ->
      Ok
        (Modelcheck.Scenario.st_deque_chaos ~fail_prob:chaos_fail
           ~freeze_prob:chaos_freeze ~freeze_spins:chaos_freeze_spins
           ~chaos_seed ~name:"cli" ~prefill ~setup threads)
  | "st-broken" ->
      Ok (Modelcheck.Scenario.st_deque_buggy ~name:"cli" ~prefill ~setup threads)
  | "sharded" | "sharded-nofence" ->
      if setup <> [] then Error (algo ^ ": --setup is not supported")
      else
        Ok
          (Modelcheck.Scenario.sharded ~shards ~capacity:length ~adopt_token
             ~shed_token
             ~fence_adoption:(algo = "sharded")
             ~name:"cli" ~prefill threads)
  | other -> Error ("unknown algorithm: " ^ other)

(* Injected-fault counters for the run summary (list-chaos and
   st-chaos only; the other algorithms never arm chaos). *)
let print_chaos_summary ~algo =
  if algo = "list-chaos" || algo = "st-chaos" then
    Printf.printf "chaos: spurious=%d delays=%d frozen-ops=%d\n%!"
      (Harness.Chaos.spurious ()) (Harness.Chaos.delays ())
      (Harness.Chaos.freezes ())

let run_fuzz scenario ~runs ~seed ~strategy ~shrink ~max_steps =
  (* The watchdog converts a hung schedule (e.g. a planted livelock
     reached under fault injection) into a diagnostic on stderr and a
     distinct exit code instead of a silent CI timeout. *)
  let watchdog = Harness.Watchdog.create ~stall_after:10. ~threads:1 () in
  let report =
    Modelcheck.Fuzz.run ~max_steps ~watchdog ~shrink ~runs ~seed ~strategy
      scenario
  in
  Format.printf "%a@." Modelcheck.Fuzz.pp_report report;
  if Harness.Watchdog.fired watchdog then begin
    Printf.eprintf "watchdog: %d stall episode(s) during fuzzing\n%!"
      (Harness.Watchdog.stalls watchdog);
    3
  end
  else match report.Modelcheck.Fuzz.violation with None -> 0 | Some _ -> 1

let run_replay scenario token ~max_steps =
  match Modelcheck.Fuzz.replay ~max_steps scenario ~token with
  | Error e ->
      prerr_endline e;
      2
  | Ok (_, None) ->
      print_endline "replay ok: schedule passed";
      0
  | Ok (threads, Some failure) ->
      Format.printf "REPLAY VIOLATION@.%a@." Modelcheck.Fuzz.pp_failure
        (threads, failure, Modelcheck.Fuzz.token_of threads failure.schedule);
      1

let is_sharded algo = algo = "sharded" || algo = "sharded-nofence"

let run algo length prefill setup threads sample seed victim crash
    max_schedules max_steps fuzz pct depth no_shrink replay chaos_fail
    chaos_freeze chaos_freeze_spins chaos_seed shards adopt_token shed_token =
  match
    scenario_of ~algo ~length ~prefill ~setup ~chaos_fail ~chaos_freeze
      ~chaos_freeze_spins ~chaos_seed ~shards ~adopt_token ~shed_token ~threads
  with
  | Error e ->
      prerr_endline e;
      2
  | Ok scenario
    when is_sharded algo
         && (sample <> None || fuzz <> None || pct <> None || replay <> None)
    ->
      ignore scenario;
      (* sampling, fuzzing and replay hard-code the single-deque
         linearizability oracle, which the sharded composite does not
         satisfy by design *)
      prerr_endline
        (algo
        ^ ": not linearizable to one deque; use plain explore \
           (invariant-checked), --victim, or --crash");
      2
  | Ok scenario ->
      let code =
        match (crash, victim, replay, pct, fuzz, sample) with
      | Some v, _, _, _, _, _ -> (
          match Modelcheck.Explorer.check_crash ~max_steps scenario ~victim:v with
          | Ok n ->
              Printf.printf
                "crash-recovery: survivors completed, drained and conserved \
                 at every one of the victim's %d crash points\n"
                n;
              0
          | Error j ->
              Printf.printf "UNRECOVERED: crash point %d broke recovery\n" j;
              1)
      | None, Some v, _, _, _, _ -> (
          match
            Modelcheck.Explorer.check_nonblocking ~max_steps scenario ~victim:v
          with
          | Ok n ->
              Printf.printf
                "non-blocking: all other threads completed at every one of \
                 the victim's %d stall points\n"
                n;
              0
          | Error j ->
              Printf.printf "BLOCKED: stall point %d prevented completion\n" j;
              1)
      | None, None, Some token, _, _, _ -> run_replay scenario token ~max_steps
      | None, None, None, Some runs, _, _ ->
          run_fuzz scenario ~runs ~seed
            ~strategy:(Modelcheck.Fuzz.Pct depth)
            ~shrink:(not no_shrink) ~max_steps
      | None, None, None, None, Some runs, _ ->
          run_fuzz scenario ~runs ~seed ~strategy:Modelcheck.Fuzz.Uniform
            ~shrink:(not no_shrink) ~max_steps
      | None, None, None, None, None, sample -> (
          let outcome =
            match sample with
            | Some n ->
                Modelcheck.Explorer.sample ~max_steps ~schedules:n ~seed
                  scenario
            | None ->
                let check =
                  if is_sharded algo then `None else `Linearizability
                in
                Modelcheck.Explorer.explore ~max_steps ~max_schedules ~check
                  scenario
          in
          Format.printf "%a@." Modelcheck.Explorer.pp_outcome outcome;
          match outcome.Modelcheck.Explorer.error with
          | None -> 0
          | Some _ -> 1)
      in
      print_chaos_summary ~algo;
      code

let algo =
  Arg.(
    value
    & opt string "array"
    & info [ "algo"; "a" ] ~docv:"ALGO"
        ~doc:
          "Algorithm: array, array-no-hints, list, list-recycle, dummy, \
           3cas, greenwald1, greenwald2, st (Sundell-Tsigas single-word CAS), \
           list-broken, st-broken (deliberately buggy), list-chaos, st-chaos \
           (fault injection), sharded (K-shard service front end; \
           invariant-checked, not linearizability-checked), sharded-nofence \
           (sharded with the adoption fence deliberately omitted — the \
           planted E25 zombie-adoption bug).")

let length =
  Arg.(
    value & opt int 4
    & info [ "length" ] ~docv:"N"
        ~doc:"Array length (bounded algorithms); per-shard capacity (sharded).")

let shards =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"K" ~doc:"sharded: number of shards.")

let adopt_token =
  Arg.(
    value
    & opt int min_int
    & info [ "adopt-token" ] ~docv:"V"
        ~doc:
          "sharded: pushing $(docv) quarantines, adopts and revives its home \
           shard instead of pushing — script it on one thread to race \
           adoption against routing (default: disabled).")

let shed_token =
  Arg.(
    value
    & opt int (min_int + 1)
    & info [ "shed-token" ] ~docv:"V"
        ~doc:
          "sharded: pushing $(docv) instead performs an urgent pop through \
           the token's route and $(i,discards) the value into a shed log — \
           the model of E25's deadline shed; the invariant then also checks \
           that no value is shed twice or both shed and resident (default: \
           disabled).")

let prefill =
  Arg.(
    value
    & opt ints_conv []
    & info [ "prefill" ] ~docv:"V,V,.." ~doc:"Values pushed right initially.")

let setup =
  Arg.(
    value
    & opt ops_conv []
    & info [ "setup" ]
        ~docv:"OPS"
        ~doc:
          "Operations run quiescently before exploration (DSL: pr:V, pl:V, \
           qr, ql).")

let threads =
  Arg.(
    value
    & opt_all ops_conv []
    & info [ "thread"; "t" ] ~docv:"OPS"
        ~doc:"One thread's scripted operations; repeatable.")

let sample =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample" ] ~docv:"N"
        ~doc:"Sample N random schedules instead of exhaustive DFS.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Sampling / fuzzing seed.")

let fuzz =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuzz" ] ~docv:"N"
        ~doc:"Fuzz N uniform-random schedules (shrinks counterexamples).")

let pct =
  Arg.(
    value
    & opt (some int) None
    & info [ "pct" ] ~docv:"N"
        ~doc:"Fuzz N PCT schedules (priority-based; see --depth).")

let depth =
  Arg.(
    value & opt int 3
    & info [ "depth" ] ~docv:"D"
        ~doc:"PCT preemption depth: D-1 priority change points per run.")

let no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Report the first counterexample unshrunk.")

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"TOKEN"
        ~doc:
          "Replay a dqf1/... token from a fuzz report (thread scripts come \
           from the token; prefill/setup/algo from the other flags).")

let chaos_fail =
  Arg.(
    value & opt float 0.1
    & info [ "chaos-fail" ] ~docv:"P"
        ~doc:"list-chaos, st-chaos: spurious DCAS/CAS failure probability.")

let chaos_freeze =
  Arg.(
    value & opt float 0.
    & info [ "chaos-freeze" ] ~docv:"P"
        ~doc:
          "list-chaos, st-chaos: probability of a bounded freeze at \
           each shared-memory access point.")

let chaos_freeze_spins =
  Arg.(
    value & opt int 8
    & info [ "chaos-freeze-spins" ] ~docv:"N"
        ~doc:"list-chaos, st-chaos: spins burned by each injected freeze.")

let chaos_seed =
  Arg.(
    value & opt int 0xC0FFEE
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:"list-chaos, st-chaos: fault-injection seed.")

let victim =
  Arg.(
    value
    & opt (some int) None
    & info [ "victim" ] ~docv:"I"
        ~doc:"Lock-freedom check: freeze thread I at every stall point.")

let crash =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash" ] ~docv:"I"
        ~doc:
          "Crash-recovery check (E22): kill thread I for good at every one \
           of its reachable crash points; survivors must complete, drain the \
           deque and conserve its contents up to the victim's single \
           in-flight operation.")

let max_schedules =
  Arg.(
    value
    & opt int 2_000_000
    & info [ "max-schedules" ] ~docv:"N" ~doc:"DFS budget.")

let max_steps =
  Arg.(
    value
    & opt int 100_000
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Per-schedule shared-memory step budget; exceeding it is reported \
           as a (liveness) violation.  Lower it to make livelock hunts — \
           e.g. the planted st-broken — terminate quickly.")

let cmd =
  let doc = "explore interleavings of deque operations (bounded model checking)" in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      const run $ algo $ length $ prefill $ setup $ threads $ sample $ seed
      $ victim $ crash $ max_schedules $ max_steps $ fuzz $ pct $ depth
      $ no_shrink $ replay $ chaos_fail $ chaos_freeze $ chaos_freeze_spins
      $ chaos_seed $ shards $ adopt_token $ shed_token)

let () = exit (Cmd.eval' cmd)
