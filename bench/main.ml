(* Experiment driver: regenerates every table of EXPERIMENTS.md.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- e5 e7        # a selection
     dune exec bench/main.exe -- --quick      # fast smoke pass
     dune exec bench/main.exe -- --json out.json e15   # machine-readable copy
     dune exec bench/main.exe -- --check-json out.json # validate/summarize it

   Experiment ids map to paper artifacts via the index in DESIGN.md.

   The --json document has a stable schema (see README "Benchmarking"):

     { "schema": "dcas-deques-bench/1",
       "quick": bool,
       "experiments": [
         { "id": "e15", "title": "...", "elapsed_s": float,
           "rows": [ { ... per-experiment fields ... } ] } ] } *)

open Cmdliner

let schema_id = "dcas-deques-bench/1"

let run_selected quick json_file ids =
  let selected =
    match ids with
    | [] -> Experiments.all
    | ids ->
        List.filter_map
          (fun id ->
            match
              List.find_opt (fun e -> e.Experiments.id = id) Experiments.all
            with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %S (have: %s)\n" id
                  (String.concat ", "
                     (List.map (fun e -> e.Experiments.id) Experiments.all));
                exit 2)
          ids
  in
  (* Open the --json file before any experiment runs: an unwritable
     path should cost a diagnostic, not a whole run and an uncaught
     exception at the end. *)
  let json_out =
    Option.map
      (fun file ->
        try (file, open_out file)
        with Sys_error msg ->
          Printf.eprintf "cannot write --json file: %s\n" msg;
          exit 2)
      json_file
  in
  if json_file <> None then Bench_support.json_enabled := true;
  let t0 = Unix.gettimeofday () in
  let records =
    List.map
      (fun e ->
        let t = Unix.gettimeofday () in
        e.Experiments.run ~quick;
        let elapsed = Unix.gettimeofday () -. t in
        Printf.printf "[%s done in %.1fs]\n%!" e.Experiments.id elapsed;
        Harness.Json.Obj
          [
            ("id", Harness.Json.String e.Experiments.id);
            ("title", Harness.Json.String e.Experiments.title);
            ("elapsed_s", Harness.Json.Float elapsed);
            ("rows", Harness.Json.List (Bench_support.drain_json ()));
          ])
      selected
  in
  Printf.printf "\nall selected experiments completed in %.1fs\n"
    (Unix.gettimeofday () -. t0);
  match json_out with
  | None -> ()
  | Some (file, oc) ->
      let doc =
        Harness.Json.Obj
          [
            ("schema", Harness.Json.String schema_id);
            ("quick", Harness.Json.Bool quick);
            ("experiments", Harness.Json.List records);
          ]
      in
      output_string oc (Harness.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" file

(* A gated latency quantile.  Dcas.Histogram reads a quantile whose
   rank landed past its range as infinity and one of an empty histogram
   as nan, and the JSON writer turns both into null: a gate must fail
   on it, not compare it. *)
let quantile_of ~experiment ~row k r =
  match Harness.Json.number_value (Harness.Json.member k r) with
  | Some v -> v
  | None ->
      Printf.eprintf
        "%s invariant violated: %s: %s is null: the quantile overflowed the \
         histogram or is empty\n"
        experiment row k;
      exit 1

(* E21 carries enough structure to cross-check the perf claims, not
   just the schema: the allocation-lean substrate must actually
   allocate less than the generic descriptors op-for-op, batching must
   actually amortize (k=16 faster and leaner per item than k=1), the
   histogram quantiles must be ordered, and the batch traffic must
   conserve items exactly. *)
let check_e21 rows =
  let open Harness.Json in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "e21 invariant violated: %s\n" m;
        exit 1)
      fmt
  in
  let str k r = Option.value ~default:"?" (string_value (member k r)) in
  let num k r =
    match number_value (member k r) with
    | Some v -> v
    | None -> fail "row lacks numeric %S" k
  in
  let int_of k r = int_of_float (num k r) in
  let section s r = str "section" r = s in
  let alloc = List.filter (section "alloc") rows in
  let batch = List.filter (section "batch") rows in
  if List.length alloc <> 4 then fail "expected 4 alloc rows";
  if List.length batch <> 6 then fail "expected 6 batch rows";
  let alloc_row path op =
    match
      List.find_opt (fun r -> str "path" r = path && str "op" r = op) alloc
    with
    | Some r -> r
    | None -> fail "missing alloc row %s/%s" path op
  in
  List.iter
    (fun op ->
      let d = alloc_row "dcas2" op and g = alloc_row "generic" op in
      if not (num "minor_words_per_op" d < num "minor_words_per_op" g) then
        fail "dcas2 %s allocates %.1f w/op, generic only %.1f" op
          (num "minor_words_per_op" d)
          (num "minor_words_per_op" g);
      if not (num "dcas2_hits_per_op" d > 0.) then
        fail "dcas2 %s rows show no dcas2 descriptor hits" op;
      if num "dcas2_hits_per_op" g <> 0. then
        fail "generic %s rows show dcas2 hits despite ablation" op)
    [ "write"; "confirm" ];
  List.iter
    (fun r ->
      let row = Printf.sprintf "batch %s k=%d" (str "path" r) (int_of "k" r) in
      let p50 = quantile_of ~experiment:"e21" ~row "p50_ns" r in
      let p99 = quantile_of ~experiment:"e21" ~row "p99_ns" r in
      if p50 > p99 then fail "%s: p50 %.0fns above p99 %.0fns" row p50 p99;
      if int_of "pushed" r <> int_of "popped" r + int_of "remaining" r then
        fail "%s: %d pushed <> %d popped + %d remaining" row
          (int_of "pushed" r) (int_of "popped" r) (int_of "remaining" r))
    batch;
  let batch_row path k =
    match
      List.find_opt (fun r -> str "path" r = path && int_of "k" r = k) batch
    with
    | Some r -> r
    | None -> fail "missing batch row %s/k=%d" path k
  in
  List.iter
    (fun path ->
      let k1 = batch_row path 1 and k16 = batch_row path 16 in
      if not (num "ops_per_sec" k16 > num "ops_per_sec" k1) then
        fail "%s: k=16 (%.0f items/s) not faster than k=1 (%.0f)" path
          (num "ops_per_sec" k16) (num "ops_per_sec" k1);
      if not (num "minor_words_per_op" k16 < num "minor_words_per_op" k1) then
        fail "%s: k=16 (%.1f w/item) not leaner than k=1 (%.1f)" path
          (num "minor_words_per_op" k16)
          (num "minor_words_per_op" k1))
    [ "dcas2"; "generic" ];
  Printf.printf "e21 invariants: ok\n"

(* E22 is the crash-recovery acceptance gate: every supervised run —
   targeted kill-k-of-n and probabilistic storm alike — must conserve
   tasks exactly (spawned = executed + reconciled), terminate without
   the watchdog firing, and help every descriptor orphaned by a
   mid-CASN death.  Reconciliation must stay within the documented
   loss bound of steal_batch + 2 units per death, and the leaf count
   must show that no task ran twice and that none vanished without
   being written off.  The targeted rows must also land exactly the
   kills they asked for. *)
let check_e22 rows =
  let open Harness.Json in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "e22 invariant violated: %s\n" m;
        exit 1)
      fmt
  in
  let str k r = Option.value ~default:"?" (string_value (member k r)) in
  let num k r =
    match number_value (member k r) with
    | Some v -> v
    | None -> fail "row %S lacks numeric %S" (str "label" r) k
  in
  let int_of k r = int_of_float (num k r) in
  if List.length rows < 5 then fail "expected >= 5 rows, got %d" (List.length rows);
  List.iter
    (fun r ->
      let label = str "label" r in
      if int_of "conserved" r <> 1 then
        fail "%s: spawned %d <> executed %d + reconciled %d" label
          (int_of "spawned" r) (int_of "executed" r) (int_of "reconciled" r);
      if int_of "stalled" r <> 0 then fail "%s: watchdog fired" label;
      if int_of "orphans_helped" r <> int_of "mid_casn_kills" r then
        fail "%s: %d orphans helped but %d mid-CASN kills" label
          (int_of "orphans_helped" r) (int_of "mid_casn_kills" r);
      if not (num "ops_per_sec" r > 0.) then fail "%s: no throughput" label;
      let killed = int_of "killed" r and batch = int_of "steal_batch" r in
      let reconciled = int_of "reconciled" r in
      if reconciled > killed * (batch + 2) then
        fail "%s: reconciled %d units, above the loss bound %d deaths x \
              (steal_batch %d + 2)"
          label reconciled killed batch;
      let leaves = int_of "leaves" r and seen = int_of "leaves_seen" r in
      if seen > leaves then
        fail "%s: %d of %d leaves seen: a task ran twice" label seen leaves;
      if reconciled = 0 && seen <> leaves then
        fail "%s: %d of %d leaves seen and nothing reconciled: a task vanished"
          label seen leaves;
      if str "section" r = "targeted" then begin
        let k = Scanf.sscanf label "kill %d of %d" (fun k _ -> k) in
        if int_of "killed" r <> k then
          fail "%s: %d workers died" label (int_of "killed" r);
        if int_of "replacements" r < k then
          fail "%s: only %d replacements for %d deaths" label
            (int_of "replacements" r) k
      end)
    rows;
  Printf.printf "e22 invariants: ok\n"

(* E23 is the shootout acceptance gate: every backend row — the two
   DCAS substrate paths, the ST single-word-CAS competitor, ABP and
   the lock baseline — must conserve items exactly across every
   domain count and mix, the histogram quantiles must be ordered, and
   the frozen-peer probe must show the ST deque completing its quota
   with all peers parked (the lock-freedom differentiator a lock-based
   row could never pass). *)
let check_e23 rows =
  let open Harness.Json in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "e23 invariant violated: %s\n" m;
        exit 1)
      fmt
  in
  let str k r = Option.value ~default:"?" (string_value (member k r)) in
  let num k r =
    match number_value (member k r) with
    | Some v -> v
    | None -> fail "row %S lacks numeric %S" (str "backend" r) k
  in
  let int_of k r = int_of_float (num k r) in
  let section s r = str "section" r = s in
  let shootout = List.filter (section "shootout") rows in
  let frozen = List.filter (section "frozen") rows in
  let backends =
    [ "dcas-list/dcas2"; "dcas-list/generic"; "st-deque"; "lock"; "abp" ]
  in
  if List.length shootout <> List.length backends * 2 * 4 then
    fail "expected %d shootout rows, got %d"
      (List.length backends * 2 * 4)
      (List.length shootout);
  List.iter
    (fun b ->
      if not (List.exists (fun r -> str "backend" r = b) shootout) then
        fail "backend %s missing from the shootout" b)
    backends;
  List.iter
    (fun r ->
      let label =
        Printf.sprintf "%s/%s/%d domains" (str "backend" r) (str "mix" r)
          (int_of "domains" r)
      in
      if int_of "conserved" r <> 1 then
        fail "%s: %d pushed <> %d popped + %d remaining" label
          (int_of "pushed" r) (int_of "popped" r) (int_of "remaining" r);
      let p50 = quantile_of ~experiment:"e23" ~row:label "p50_ns" r in
      let p99 = quantile_of ~experiment:"e23" ~row:label "p99_ns" r in
      if p50 > p99 then fail "%s: p50 %.0fns above p99 %.0fns" label p50 p99;
      if not (num "ops_per_sec" r > 0.) then fail "%s: no throughput" label)
    shootout;
  (match frozen with
  | [ r ] ->
      if int_of "completed" r <> 1 then
        fail "frozen-peer probe: survivor completed only %d ops"
          (int_of "survivor_ops" r);
      if int_of "survivor_ops" r < 1_000 then
        fail "frozen-peer probe: %d survivor ops below the 1000 quota"
          (int_of "survivor_ops" r);
      if int_of "parks" r < int_of "frozen" r then
        fail "frozen-peer probe: only %d parks for %d frozen peers"
          (int_of "parks" r) (int_of "frozen" r)
  | l -> fail "expected exactly 1 frozen-probe row, got %d" (List.length l));
  Printf.printf "e23 invariants: ok\n"

(* The E24/E25 soak gate.  Both cells (calm and storm) must conserve
   service-wide with sheds as first-class outcomes (spawned = executed
   + reconciled + shed, zero leftover drain), have spawned traffic and
   served some, keep their calm quantiles ordered and finite, and
   serve no op more than 50ms past its stamped deadline; the calm cell
   must shed at most 5% and see no storm at all (no kill, freeze,
   chaos hit, window, zombie bite or fencing — the false-positive
   gate), and the storm cell must shed at most 75%, schedule at least
   one window per fault kind it must show, land every window, show
   each of [kinds] (a kill, a freeze park, a spurious DCAS failure;
   for a zombie both a bite and a fencing), replace every death and
   fencing, record recovery latencies in order, and keep its fault
   quantiles ordered.  [calm_p99_slo] is a deliberately generous calm
   p99 ceiling — the bar is "bounded under faults on one
   oversubscribed core", not a latency contest — for soaks whose pops
   do not wait out a deadline budget.  Each row is judged on
   conservation, leftover, throughput, calm quantiles and the SLO
   before any other field is read, so a row that carries only those
   fails on them by name. *)
let check_soak ~experiment ~kinds ?calm_p99_slo rows =
  let open Harness.Json in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s invariant violated: %s\n" experiment m;
        exit 1)
      fmt
  in
  let str k r = Option.value ~default:"?" (string_value (member k r)) in
  let num k r =
    match number_value (member k r) with
    | Some v -> v
    | None -> fail "row %S lacks numeric %S" (str "cell" r) k
  in
  let int_of k r = int_of_float (num k r) in
  let q k r = quantile_of ~experiment ~row:(str "cell" r) k r in
  let soak = List.filter (fun r -> str "section" r = "soak") rows in
  let cell c =
    match List.find_opt (fun r -> str "cell" r = c) soak with
    | Some r -> r
    | None -> fail "missing %s cell" c
  in
  if List.length soak <> 2 then
    fail "expected 2 soak rows, got %d" (List.length soak);
  let calm = cell "calm" and storm = cell "storm" in
  List.iter
    (fun r ->
      let c = str "cell" r in
      if int_of "conserved" r <> 1 then
        fail "%s: spawned %d <> executed %d + reconciled %d + shed %d+%d" c
          (int_of "spawned" r) (int_of "executed" r) (int_of "reconciled" r)
          (int_of "shed_admission" r) (int_of "shed_expired" r);
      if int_of "leftover" r <> 0 then
        fail "%s: %d items left after the final drain" c (int_of "leftover" r);
      if not (num "ops_per_sec" r > 0.) then fail "%s: no throughput" c;
      let p50 = q "calm_p50_ns" r and p99 = q "calm_p99_ns" r in
      let p999 = q "calm_p999_ns" r in
      if p50 > p99 || p99 > p999 then
        fail "%s: calm quantiles out of order (%.0f/%.0f/%.0f)" c p50 p99 p999;
      Option.iter
        (fun slo ->
          if p99 > slo then
            fail "%s: calm p99 %.1fms blows the %.0fms SLO" c (p99 /. 1e6)
              (slo /. 1e6))
        calm_p99_slo;
      if int_of "spawned" r <= 0 then fail "%s: spawned nothing" c;
      (* deadline enforcement: expired items are shed at dequeue, so a
         served op finishing past its stamped expiry beyond a
         scheduling epsilon is an enforcement bug *)
      if num "overshoot_max_ns" r > 50e6 then
        fail "%s: served op finished %.1fms past its deadline" c
          (num "overshoot_max_ns" r /. 1e6))
    soak;
  (* shed-rate ceilings: a calm cell shedding visibly means admission
     or expiry fires without cause; a storm cell may shed heavily but
     must still serve a floor of its traffic *)
  if num "shed_rate" calm > 0.05 then
    fail "calm cell shed %.1f%% of its traffic" (num "shed_rate" calm *. 100.);
  if num "shed_rate" storm > 0.75 then
    fail "storm cell shed %.1f%% of its traffic"
      (num "shed_rate" storm *. 100.);
  if
    int_of "killed" calm <> 0
    || int_of "freezes" calm <> 0
    || int_of "chaos_spurious" calm <> 0
    || int_of "storm_windows" calm <> 0
  then
    fail "calm cell saw storm faults (%d kills, %d freezes, %d chaos hits, \
          %d windows)"
      (int_of "killed" calm) (int_of "freezes" calm)
      (int_of "chaos_spurious" calm)
      (int_of "storm_windows" calm);
  (* no zombie bites without a zombie window, and no fencing of
     healthy consumers (an idle or merely descheduled consumer must
     trip neither detector) *)
  if int_of "zombie_bites" calm <> 0 then fail "calm cell saw zombie bites";
  if int_of "zombies_fenced" calm <> 0 then
    fail "calm cell fenced %d healthy consumers as zombies"
      (int_of "zombies_fenced" calm);
  if int_of "storm_windows" storm < List.length kinds then
    fail "storm cell scheduled only %d windows" (int_of "storm_windows" storm);
  if int_of "storm_landed" storm <> int_of "storm_windows" storm then
    fail "only %d of %d storm windows landed" (int_of "storm_landed" storm)
      (int_of "storm_windows" storm);
  List.iter
    (function
      | `Kill -> if int_of "killed" storm < 1 then fail "storm cell killed nobody"
      | `Freeze ->
          if int_of "freezes" storm < 1 then fail "storm cell froze nobody"
      | `Chaos ->
          if int_of "chaos_spurious" storm < 1 then
            fail "storm cell injected no spurious DCAS failures"
      | `Zombie ->
          if int_of "zombie_bites" storm < 1 then
            fail "storm cell's zombie never bit (suppressed no operations)";
          if int_of "zombies_fenced" storm < 1 then
            fail
              "storm cell fenced no zombie (progress-based detection failed)")
    kinds;
  if
    int_of "replacements" storm
    < int_of "killed" storm + int_of "zombies_fenced" storm
  then
    fail "storm: %d replacements for %d deaths + %d zombies"
      (int_of "replacements" storm) (int_of "killed" storm)
      (int_of "zombies_fenced" storm);
  if int_of "recoveries" storm < 1 || not (num "recovery_max_s" storm > 0.)
  then fail "storm cell recorded no recovery latency";
  if
    num "recovery_p50_s" storm > num "recovery_p90_s" storm
    || num "recovery_p90_s" storm > num "recovery_max_s" storm
  then
    fail "storm: recovery quantiles out of order (%.3f/%.3f/%.3f)"
      (num "recovery_p50_s" storm) (num "recovery_p90_s" storm)
      (num "recovery_max_s" storm);
  if q "fault_p50_ns" storm > q "fault_p99_ns" storm then
    fail "storm: fault quantiles out of order";
  Printf.printf "%s invariants: ok\n" experiment

(* Parse a --json document back and print a deterministic summary; the
   cram test uses this as the round-trip check. *)
let check_json file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Harness.Json.of_string text with
  | exception Harness.Json.Parse_error m ->
      Printf.eprintf "invalid JSON in %s: %s\n" file m;
      exit 1
  | doc ->
      let open Harness.Json in
      (match string_value (member "schema" doc) with
      | Some s when s = schema_id -> Printf.printf "schema: %s\n" s
      | Some s ->
          Printf.eprintf "unexpected schema %S\n" s;
          exit 1
      | None ->
          Printf.eprintf "missing schema field\n";
          exit 1);
      List.iter
        (fun e ->
          match string_value (member "id" e) with
          | None ->
              Printf.eprintf "experiment record without id\n";
              exit 1
          | Some id ->
              let rows = to_list (member "rows" e) in
              (* every row must at least carry numeric columns where
                 the schema promises them *)
              List.iter
                (fun r ->
                  match number_value (member "ops_per_sec" r) with
                  | Some _ -> ()
                  | None ->
                      Printf.eprintf "row in %s lacks ops_per_sec\n" id;
                      exit 1)
                rows;
              Printf.printf "%s: %d rows\n" id (List.length rows);
              if id = "e21" then check_e21 rows;
              if id = "e22" then check_e22 rows;
              if id = "e23" then check_e23 rows;
              if id = "e24" then
                check_soak ~experiment:"e24" ~kinds:[ `Kill; `Freeze; `Chaos ]
                  ~calm_p99_slo:50e6 rows;
              if id = "e25" then
                check_soak ~experiment:"e25"
                  ~kinds:[ `Kill; `Freeze; `Chaos; `Zombie ]
                  rows)
        (to_list (member "experiments" doc))

(* --- Baseline comparison: bench --compare OLD.json NEW.json ---

   The row matching, delta and hot-path gating logic lives in
   {!Harness.Compare} (unit tested in test_harness.ml); this wrapper
   only maps its verdict onto the driver's exit-code convention:
   broken inputs (missing file, bad JSON, wrong schema, NaN or
   missing ops_per_sec in a matched cell, nothing to compare) are
   usage-class failures — exit 2 — kept distinct from an honest
   hot-path regression's exit 3. *)

let compare_files old_file new_file =
  Printf.printf "comparing %s (old) -> %s (new)\n" old_file new_file;
  match
    Harness.Compare.run ~print:print_endline ~schema:schema_id ~old_file
      ~new_file ()
  with
  | Harness.Compare.Invalid m ->
      Printf.eprintf "%s\n" m;
      exit 2
  | Harness.Compare.Compared { matched; regressions } -> (
      Printf.printf "%d rows matched\n" matched;
      match regressions with
      | [] ->
          Printf.printf "no hot-path regressions beyond %.0f%%\n"
            Harness.Compare.default_threshold
      | l ->
          Printf.eprintf "%d hot-path regression(s) beyond %.0f%%:\n"
            (List.length l) Harness.Compare.default_threshold;
          List.iter (fun (key, d) -> Printf.eprintf "  %+.1f%%  %s\n" d key) l;
          exit 3)

let main quick json_file check compare ids =
  match (check, compare, ids) with
  | Some file, false, _ -> check_json file
  | None, true, [ old_file; new_file ] -> compare_files old_file new_file
  | None, true, _ ->
      Printf.eprintf "usage: bench --compare OLD.json NEW.json\n";
      exit 2
  | Some _, true, _ ->
      Printf.eprintf "--check-json and --compare are mutually exclusive\n";
      exit 2
  | None, false, ids -> run_selected quick json_file ids

let quick =
  let doc = "Shrink durations and sample counts (smoke run)." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let json_file =
  let doc = "Also write results as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let check =
  let doc =
    "Parse a previously written --json $(docv), validate it against the \
     schema and print a summary, instead of running experiments."
  in
  Arg.(value & opt (some string) None & info [ "check-json" ] ~docv:"FILE" ~doc)

let compare_flag =
  let doc =
    "Compare two previously written --json documents (given as the two \
     positional arguments, old then new): print per-row ops_per_sec deltas \
     and exit 3 if a hot-path row (single-domain e23 shootout, e24 soak) \
     regressed by more than 20%."
  in
  Arg.(value & flag & info [ "compare" ] ~doc)

let ids =
  let doc =
    "Experiment ids to run (default: all), e.g. e4 e7 — or, with \
     $(b,--compare), the old and new JSON files."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "DCAS deque experiment tables (E1-E25)" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(const main $ quick $ json_file $ check $ compare_flag $ ids)

let () = exit (Cmd.eval cmd)
