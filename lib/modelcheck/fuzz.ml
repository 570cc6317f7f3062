(* Probabilistic schedule fuzzing over the explorer's one-shot runner.

   The DFS explorer enumerates every interleaving but only of tiny
   windows; this module trades exhaustiveness for depth, drawing random
   schedules from two families:

   - a uniform random walk: each step picks uniformly among the enabled
     threads, and
   - PCT (probabilistic concurrency testing, Burckhardt et al.): each
     thread gets a random priority, the highest-priority enabled thread
     always runs, and at d-1 random step indices the running thread's
     priority is demoted below everyone's.  A bug of preemption depth d
     is found with probability >= 1/(n * k^(d-1)) per run, independent
     of how astronomically rare the schedule is under uniform random
     choice.

   Both share the Scenario / linearizability oracle with the DFS
   explorer.  A failing run is minimized before reporting — whole
   threads are dropped, scripts are shortened from the tail, the
   schedule is re-canonicalized toward lowest-thread-first — and the
   result is packaged as a replay token, a single string that rebuilds
   the (shrunk) thread scripts and the exact decision sequence, so the
   failure reproduces byte-for-byte from the CLI or a test.

   Everything is driven by Dcas.Splitmix: same seed, same runs, same
   verdict. *)

type strategy = Uniform | Pct of int  (* priority change-point depth d >= 1 *)

type failure = {
  schedule : int list;  (* thread ids, execution order, as replayed *)
  reason : string;
  pretty_history : string;
}

type counterexample = {
  threads : int Spec.Op.op list array;  (* shrunk scripts *)
  failure : failure;
  token : string;
  found_at : int;  (* 1-based index of the first failing run *)
  shrink_accepts : int;  (* candidates accepted during minimization *)
}

type report = {
  budget : int;
  executed : int;
  strategy : strategy;
  seed : int;
  violation : counterexample option;
}

(* --- replay tokens --- *)

let token_version = "dqf1"

let token_of threads schedule =
  let scripts =
    Array.to_list threads
    |> List.map (fun ops -> String.concat "," (List.map Spec.Op.to_token ops))
    |> String.concat "|"
  in
  let sched = String.concat "." (List.map string_of_int schedule) in
  String.concat "/" [ token_version; scripts; sched ]

let parse_script s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc tok ->
           match acc with
           | Error _ as e -> e
           | Ok ops -> (
               match Spec.Op.of_token (String.trim tok) with
               | Ok op -> Ok (op :: ops)
               | Error e -> Error e))
         (Ok [])
    |> Result.map List.rev

let parse_token token =
  match String.split_on_char '/' token with
  | [ v; scripts; sched ] when v = token_version -> (
      let threads =
        String.split_on_char '|' scripts
        |> List.fold_left
             (fun acc s ->
               match acc with
               | Error _ as e -> e
               | Ok ts -> Result.map (fun ops -> ops :: ts) (parse_script s))
             (Ok [])
        |> Result.map (fun ts -> Array.of_list (List.rev ts))
      in
      let schedule =
        if String.trim sched = "" then Ok []
        else
          String.split_on_char '.' sched
          |> List.fold_left
               (fun acc tok ->
                 match (acc, int_of_string_opt tok) with
                 | (Error _ as e), _ -> e
                 | Ok xs, Some t when t >= 0 -> Ok (t :: xs)
                 | Ok _, _ -> Error ("bad thread id " ^ tok))
               (Ok [])
          |> Result.map List.rev
      in
      match (threads, schedule) with
      | Ok t, Ok s -> Ok (t, s)
      | Error e, _ | _, Error e -> Error ("bad replay token: " ^ e))
  | _ -> Error "bad replay token: expected dqf1/<scripts>/<schedule>"

(* --- running one schedule and classifying the outcome --- *)

(* Wrap a decision function so the decisions survive even when the run
   dies in Invariant_violation or Step_limit (the report inside
   run_schedule is lost on raise). *)
let recording inner =
  let decisions = ref [] in
  let decide depth enabled =
    let pos = inner depth enabled in
    decisions := (enabled, pos) :: !decisions;
    pos
  in
  (decide, decisions)

let run_one ~max_steps scenario inner =
  let decide, decisions = recording inner in
  match Explorer.run_schedule ~max_steps scenario ~decide with
  | report -> (
      match Explorer.check_history scenario report with
      | Ok () -> None
      | Error reason ->
          Some
            {
              schedule = Explorer.schedule_of_decisions !decisions;
              reason;
              pretty_history = Explorer.pretty_history report.history;
            })
  | exception Explorer.Invariant_violation e ->
      Some
        {
          schedule = Explorer.schedule_of_decisions !decisions;
          reason = "invariant violated: " ^ e;
          pretty_history = "";
        }
  | exception Explorer.Step_limit ->
      Some
        {
          schedule = Explorer.schedule_of_decisions !decisions;
          reason = "step limit exceeded";
          pretty_history = "";
        }

(* Replay a recorded schedule: follow the thread ids while they are
   enabled; past the end (or when the named thread cannot run) fall
   back to the first enabled thread.  Total, deterministic. *)
let decide_of_schedule schedule =
  let arr = Array.of_list schedule in
  fun depth enabled ->
    if depth < Array.length arr then
      match List.find_index (fun i -> i = arr.(depth)) enabled with
      | Some pos -> pos
      | None -> 0
    else 0

let replay_threads ~max_steps scenario threads schedule =
  run_one ~max_steps
    { scenario with Scenario.threads }
    (decide_of_schedule schedule)

let replay ?(max_steps = 100_000) scenario ~token =
  match parse_token token with
  | Error _ as e -> e
  | Ok (threads, schedule) ->
      Ok (threads, replay_threads ~max_steps scenario threads schedule)

(* --- the two schedule families --- *)

let uniform_decide rng _depth enabled =
  Dcas.Splitmix.int rng ~bound:(List.length enabled)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Dcas.Splitmix.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* PCT: initial priorities are a random permutation of d..d+n-1; the
   j-th change point (a step index below [horizon]) demotes whoever is
   running at that step to priority d-1-j, below every initial
   priority and every earlier demotion. *)
let pct_decide rng ~n ~depth ~horizon =
  let prios = Array.init n (fun i -> depth + i) in
  shuffle rng prios;
  let changes =
    Array.init (max 0 (depth - 1)) (fun _ ->
        Dcas.Splitmix.int rng ~bound:(max 1 horizon))
  in
  let step = ref 0 in
  fun _depth enabled ->
    let tid =
      List.fold_left
        (fun best i ->
          match best with
          | None -> Some i
          | Some j -> if prios.(i) > prios.(j) then Some i else best)
        None enabled
      |> Option.get
    in
    Array.iteri (fun j at -> if at = !step then prios.(tid) <- depth - 1 - j) changes;
    incr step;
    match List.find_index (fun i -> i = tid) enabled with
    | Some pos -> pos
    | None -> assert false

(* PCT needs an a-priori schedule length to place change points in; a
   deterministic round-robin dry run gives a good-enough horizon. *)
let estimate_steps ~max_steps scenario =
  match
    Explorer.run_schedule ~max_steps scenario ~decide:(fun depth enabled ->
        depth mod List.length enabled)
  with
  | report -> report.Explorer.steps
  | exception (Explorer.Step_limit | Explorer.Invariant_violation _) ->
      max_steps

(* --- counterexample minimization --- *)

(* Shrink a failing (threads, schedule) pair while it keeps failing:
   (1) drop whole threads, (2) shorten scripts from the tail,
   (3) replay ever-shorter schedule prefixes (the fallback decider
   completes the run, so an accepted prefix re-canonicalizes the tail
   to lowest-enabled-first), (4) canonicalize each decision toward the
   lowest thread id.  Every accepted candidate replaces the failure
   with the newly observed one, so the final schedule, history and
   token are mutually consistent. *)
let minimize ~max_steps scenario (f0 : failure) =
  let threads = ref (Array.copy scenario.Scenario.threads) in
  let failure = ref f0 in
  let accepts = ref 0 in
  let try_candidate thr sched =
    match replay_threads ~max_steps scenario thr sched with
    | Some f ->
        threads := thr;
        failure := f;
        incr accepts;
        true
    | None -> false
  in
  let drop_threads () =
    Array.iteri
      (fun t script ->
        if script <> [] then begin
          let thr = Array.copy !threads in
          thr.(t) <- [];
          ignore
            (try_candidate thr (List.filter (fun i -> i <> t) !failure.schedule))
        end)
      !threads
  in
  let shorten_scripts () =
    Array.iteri
      (fun t _ ->
        let rec chop () =
          let script = !threads.(t) in
          if script <> [] then begin
            let thr = Array.copy !threads in
            thr.(t) <- List.filteri (fun i _ -> i < List.length script - 1) script;
            if try_candidate thr !failure.schedule then chop ()
          end
        in
        chop ())
      !threads
  in
  let truncate_schedule () =
    let sched = Array.of_list !failure.schedule in
    let rec go l =
      if l < Array.length sched then
        if
          try_candidate !threads
            (Array.to_list (Array.sub sched 0 l))
        then ()
        else go (l + 1)
    in
    go 0
  in
  let canonicalize () =
    let rec go i =
      let sched = Array.of_list !failure.schedule in
      if i < Array.length sched then begin
        let rec try_tid tid =
          if tid < sched.(i) then
            let cand = Array.copy sched in
            cand.(i) <- tid;
            if try_candidate !threads (Array.to_list cand) then ()
            else try_tid (tid + 1)
        in
        try_tid 0;
        go (i + 1)
      end
    in
    go 0
  in
  let state () = (Array.map (fun s -> s) !threads, !failure.schedule) in
  let rec fixpoint rounds =
    let before = state () in
    drop_threads ();
    shorten_scripts ();
    truncate_schedule ();
    canonicalize ();
    if rounds > 1 && state () <> before then fixpoint (rounds - 1)
  in
  fixpoint 4;
  (!threads, !failure, !accepts)

(* --- the fuzz loop --- *)

let run ?(max_steps = 100_000) ?(shrink = true) ?watchdog ~runs ~seed
    ~strategy scenario =
  let master = Dcas.Splitmix.create ~seed in
  let n = Array.length scenario.Scenario.threads in
  let horizon =
    match strategy with
    | Uniform -> 0
    | Pct _ -> estimate_steps ~max_steps scenario
  in
  let mk_decide rng =
    match strategy with
    | Uniform -> uniform_decide rng
    | Pct depth ->
        if depth < 1 then invalid_arg "Fuzz.run: Pct depth must be >= 1";
        pct_decide rng ~n ~depth ~horizon
  in
  (* The fuzz loop itself runs on the calling domain; the watchdog
     (when given) ticks once per executed schedule, so a run that
     livelocks inside the structure under test — below the explorer's
     step accounting — still surfaces as a diagnostic. *)
  let tick k =
    match watchdog with
    | None -> ()
    | Some w ->
        Harness.Watchdog.note w ~tid:0 (Printf.sprintf "fuzz run %d" k);
        Harness.Watchdog.tick w ~tid:0
  in
  Option.iter Harness.Watchdog.start watchdog;
  let finally () =
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog
  in
  Fun.protect ~finally @@ fun () ->
  let rec go k =
    if k > runs then
      { budget = runs; executed = runs; strategy; seed; violation = None }
    else
      let rng = Dcas.Splitmix.split master in
      match
        let r = run_one ~max_steps scenario (mk_decide rng) in
        tick k;
        r
      with
      | None -> go (k + 1)
      | Some f ->
          let threads, failure, shrink_accepts =
            if shrink then minimize ~max_steps scenario f
            else (Array.copy scenario.Scenario.threads, f, 0)
          in
          {
            budget = runs;
            executed = k;
            strategy;
            seed;
            violation =
              Some
                {
                  threads;
                  failure;
                  token = token_of threads failure.schedule;
                  found_at = k;
                  shrink_accepts;
                };
          }
  in
  go 1

(* --- reporting (format pinned by the fuzz cram test) --- *)

let strategy_name = function
  | Uniform -> "uniform"
  | Pct d -> Printf.sprintf "pct depth=%d" d

let pp_script ppf ops =
  if ops = [] then Format.pp_print_string ppf "(idle)"
  else
    Format.pp_print_string ppf
      (String.concat "," (List.map Spec.Op.to_token ops))

let pp_failure ppf (threads, (f : failure), token) =
  Format.fprintf ppf "reason: %s@." f.reason;
  Format.fprintf ppf "threads: %s@."
    (String.concat " | "
       (Array.to_list
          (Array.map (Format.asprintf "%a" pp_script) threads)));
  Format.fprintf ppf "schedule: %s@."
    (String.concat " " (List.map string_of_int f.schedule));
  if f.pretty_history <> "" then
    Format.fprintf ppf "history:@.%s@." (String.trim f.pretty_history);
  Format.fprintf ppf "replay: %s" token

let pp_report ppf r =
  match r.violation with
  | None ->
      Format.fprintf ppf "fuzz ok: no violation in %d runs (%s, seed %d)"
        r.executed (strategy_name r.strategy) r.seed
  | Some c ->
      Format.fprintf ppf
        "FUZZ VIOLATION (run %d/%d, %s, seed %d, %d shrink steps)@."
        c.found_at r.budget (strategy_name r.strategy) r.seed c.shrink_accepts;
      pp_failure ppf (c.threads, c.failure, c.token)
