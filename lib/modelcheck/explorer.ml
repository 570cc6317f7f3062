(* Bounded systematic exploration of thread interleavings.

   Threads run inside effect handlers; every shared-memory access of
   {!Mem_model} yields, and the explorer decides which thread performs
   the next atomic step.  Because OCaml continuations are one-shot the
   explorer is stateless in the jVM/CHESS style: it re-executes the
   scenario from scratch for every schedule, enumerating schedules by
   depth-first search over the decision points of the previous run.

   For every complete schedule the explorer

   - checks the optional per-step invariant after every transition
     (the executable RepInv obligation of Section 5), and
   - checks the recorded history against the sequential deque
     specification with the Wing&Gong checker (the linearizability
     obligation of Theorems 3.1 and 4.1).

   [explore] is exhaustive up to [max_schedules] ({!Fuzz} draws random
   schedules for configurations too large to enumerate);
   [check_nonblocking] freezes one thread at every one of its reachable
   step counts and verifies that all other threads still complete —
   the empirical face of the paper's lock-freedom theorems. *)

exception Step_limit
exception Invariant_violation of string

type thread_status =
  | Not_started
  | Paused of (unit, unit) Effect.Deep.continuation
  | Finished

type run_report = {
  history : (int Spec.Op.op, int Spec.Op.res) Spec.History.entry array;
  steps : int;
  decisions : (int list * int) list;
      (* reversed stack of (enabled threads, chosen position) *)
}

(* Execute one schedule.  [decide depth enabled] returns the position
   (not the thread id) to pick within [enabled]; every decision made is
   recorded so the caller can backtrack.  [frozen] threads are never
   scheduled; the run ends when every unfrozen thread has finished. *)
let run_schedule ?(max_steps = 100_000) ?(frozen = fun _ -> false)
    (scenario : Scenario.t) ~decide =
  let n = Array.length scenario.threads in
  let inst = Mem_model.unmonitored scenario.instantiate in
  let clock = ref 0 in
  let entries = ref [] in
  let status = Array.make n Not_started in
  let run_thread i () =
    List.iter
      (fun op ->
        let inv = !clock in
        incr clock;
        let result = inst.Scenario.apply op in
        let ret = !clock in
        incr clock;
        entries :=
          { Spec.History.thread = i; op; result; inv; ret } :: !entries)
      scenario.threads.(i)
  in
  let step i =
    match status.(i) with
    | Finished -> invalid_arg "Explorer.step: thread already finished"
    | Paused k -> Effect.Deep.continue k ()
    | Not_started ->
        Effect.Deep.match_with (run_thread i) ()
          {
            retc = (fun () -> status.(i) <- Finished);
            exnc = (fun e -> raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Mem_model.Yield ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        status.(i) <- Paused k)
                | _ -> None);
          }
  in
  let check_invariant () =
    match inst.Scenario.invariant with
    | None -> ()
    | Some chk -> (
        match Mem_model.unmonitored chk with
        | Ok () -> ()
        | Error e -> raise (Invariant_violation e))
  in
  let steps = ref 0 in
  let decisions = ref [] in
  let rec loop depth =
    let enabled =
      List.filter
        (fun i ->
          (not (frozen i))
          && match status.(i) with Finished -> false | Not_started | Paused _ -> true)
        (List.init n Fun.id)
    in
    match enabled with
    | [] -> ()
    | _ ->
        incr steps;
        if !steps > max_steps then raise Step_limit;
        let pos = decide depth enabled in
        decisions := (enabled, pos) :: !decisions;
        step (List.nth enabled pos);
        check_invariant ();
        loop (depth + 1)
  in
  check_invariant ();
  loop 0;
  {
    history = Array.of_list !entries;
    steps = !steps;
    decisions = !decisions;
  }

type failure = {
  schedule : int list;  (* thread ids in execution order *)
  reason : string;
  pretty_history : string;
}

type outcome = {
  schedules : int;
  exhaustive : bool;  (* false if max_schedules was hit *)
  error : failure option;
}

let pp_outcome ppf o =
  match o.error with
  | None ->
      Format.fprintf ppf "ok (%d schedules%s)" o.schedules
        (if o.exhaustive then ", exhaustive" else ", truncated")
  | Some f ->
      Format.fprintf ppf "FAILED after %d schedules: %s@.schedule: %s@.%s"
        o.schedules f.reason
        (String.concat " " (List.map string_of_int f.schedule))
        f.pretty_history

let schedule_of_decisions decisions =
  List.rev_map (fun (enabled, pos) -> List.nth enabled pos) decisions

let pretty_history h =
  Format.asprintf "%a"
    (Spec.History.pp
       (Spec.Op.pp_op Format.pp_print_int)
       (Spec.Op.pp_res Format.pp_print_int))
    h

let check_history (scenario : Scenario.t) (report : run_report) =
  match
    Spec.Linearizability.check_deque ?capacity:scenario.capacity
      ~initial:scenario.initial report.history
  with
  | Ok _witness -> Ok ()
  | Error () -> Error "history is not linearizable"

let failure_of report reason =
  {
    schedule = schedule_of_decisions report.decisions;
    reason;
    pretty_history = pretty_history report.history;
  }

(* Exhaustive DFS over schedules.  [on_schedule] is invoked with every
   completed run's report (e.g. to aggregate memory-model statistics
   per schedule). *)
let explore ?(max_steps = 100_000) ?(max_schedules = 2_000_000)
    ?(check = `Linearizability) ?(on_schedule = fun (_ : run_report) -> ())
    (scenario : Scenario.t) =
  let rec attempt prefix count =
    (* prefix: reversed (enabled, pos) decisions to replay *)
    let prefix_arr = Array.of_list (List.rev prefix) in
    let decide depth _enabled =
      if depth < Array.length prefix_arr then snd prefix_arr.(depth) else 0
    in
    let result =
      match run_schedule ~max_steps scenario ~decide with
      | report -> (
          on_schedule report;
          match check with
          | `None -> Ok report
          | `Linearizability -> (
              match check_history scenario report with
              | Ok () -> Ok report
              | Error reason -> Error (failure_of report reason)))
      | exception Invariant_violation e ->
          Error
            {
              schedule = [];
              reason = "invariant violated: " ^ e;
              pretty_history = "";
            }
      | exception Step_limit ->
          Error
            { schedule = []; reason = "step limit exceeded"; pretty_history = "" }
    in
    match result with
    | Error f -> { schedules = count + 1; exhaustive = false; error = Some f }
    | Ok report -> (
        (* find the deepest decision with an unexplored alternative *)
        let rec backtrack = function
          | [] -> None
          | (enabled, pos) :: rest ->
              if pos + 1 < List.length enabled then Some ((enabled, pos + 1) :: rest)
              else backtrack rest
        in
        match backtrack report.decisions with
        | None -> { schedules = count + 1; exhaustive = true; error = None }
        | Some prefix' ->
            if count + 1 >= max_schedules then
              { schedules = count + 1; exhaustive = false; error = None }
            else attempt prefix' (count + 1))
  in
  attempt [] 0

(* Lock-freedom evidence: freeze [victim] after each of its reachable
   step counts (0, 1, 2, ... up to its solo completion) and check that
   every other thread still finishes.  Returns the number of stall
   points exercised, or the first stall point at which some other
   thread failed to complete. *)
let check_nonblocking ?(max_steps = 100_000) (scenario : Scenario.t) ~victim =
  (* how many steps does the victim take when scheduled greedily? *)
  let victim_steps = ref 0 in
  let count_decide _depth enabled =
    match List.find_index (fun i -> i = victim) enabled with
    | Some pos ->
        incr victim_steps;
        pos
    | None -> 0
  in
  ignore (run_schedule ~max_steps scenario ~decide:count_decide);
  let total = !victim_steps in
  let rec try_stall j =
    if j > total then Ok total
    else begin
      (* schedule the victim for its first j steps, then freeze it *)
      let victim_taken = ref 0 in
      let frozen i = i = victim && !victim_taken >= j in
      let decide _depth enabled =
        match List.find_index (fun i -> i = victim) enabled with
        | Some pos when !victim_taken < j ->
            incr victim_taken;
            pos
        | Some _ | None -> 0
      in
      match run_schedule ~max_steps ~frozen scenario ~decide with
      | _report -> try_stall (j + 1)
      | exception Step_limit -> Error j
      | exception Invariant_violation _ -> Error j
    end
  in
  try_stall 0

(* Fail-stop crash check: like {!check_nonblocking}, the victim stops
   for good after each of its reachable step counts — but here the
   check continues past survivor completion into {e recovery}: a
   survivor drains the structure to empty (helping any descriptor the
   victim left undecided, exactly the orphan-helping path of the live
   substrate) and the drained values must balance the completed
   operations under crash-commit uncertainty — the victim's single
   in-flight operation may or may not have taken effect, everything
   else must conserve exactly. *)
let check_crash ?(max_steps = 100_000) (scenario : Scenario.t) ~victim =
  if victim < 0 || victim >= Array.length scenario.Scenario.threads then
    invalid_arg "Explorer.check_crash: victim out of range";
  (* how many steps does the victim take when scheduled greedily? *)
  let victim_steps = ref 0 in
  let count_decide _depth enabled =
    match List.find_index (fun i -> i = victim) enabled with
    | Some pos ->
        incr victim_steps;
        pos
    | None -> 0
  in
  ignore (run_schedule ~max_steps scenario ~decide:count_decide);
  let total = !victim_steps in
  (* multiset difference: [remove x xs] = Some xs' iff x was in xs *)
  let rec remove x = function
    | [] -> None
    | y :: ys when y = x -> Some ys
    | y :: ys -> Option.map (fun ys' -> y :: ys') (remove x ys)
  in
  let conserves report drained =
    (* values known pushed: the prefill plus every push that completed
       (including the victim's recorded prefix) *)
    let committed_pushes =
      Array.to_list report.history
      |> List.filter_map (fun e ->
             match (e.Spec.History.op, e.Spec.History.result) with
             | (Spec.Op.Push_right v | Spec.Op.Push_left v), Spec.Op.Okay ->
                 Some v
             | _ -> None)
    in
    let committed_pops =
      Array.to_list report.history
      |> List.filter_map (fun e ->
             match e.Spec.History.result with
             | Spec.Op.Got v -> Some v
             | _ -> None)
    in
    (* the victim's in-flight operation, if it stopped mid-script *)
    let victim_done =
      Array.to_list report.history
      |> List.filter (fun e -> e.Spec.History.thread = victim)
      |> List.length
    in
    let in_flight = List.nth_opt scenario.Scenario.threads.(victim) victim_done in
    let supply = scenario.Scenario.initial @ committed_pushes in
    let consumed = committed_pops @ drained in
    (* every consumed value comes from the supply (or the victim's
       maybe-committed push), each unit at most once ... *)
    let rec consume supply extra = function
      | [] -> Some (supply, extra)
      | v :: vs -> (
          match remove v supply with
          | Some supply' -> consume supply' extra vs
          | None -> (
              match extra with
              | Some ((Spec.Op.Push_right w | Spec.Op.Push_left w) : int Spec.Op.op)
                when w = v ->
                  consume supply None vs
              | _ -> None))
    in
    match consume supply in_flight consumed with
    | None -> false
    | Some (leftover, _) -> (
        (* ... and, the structure now drained, every supplied value was
           consumed — except at most one eaten by the victim's
           maybe-committed in-flight pop *)
        match leftover with
        | [] -> true
        | [ _ ] -> (
            match in_flight with
            | Some (Spec.Op.Pop_right | Spec.Op.Pop_left) -> true
            | _ -> false)
        | _ -> false)
  in
  let rec try_crash j =
    if j > total then Ok total
    else begin
      let victim_taken = ref 0 in
      let frozen i = i = victim && !victim_taken >= j in
      let decide _depth enabled =
        match List.find_index (fun i -> i = victim) enabled with
        | Some pos when !victim_taken < j ->
            incr victim_taken;
            pos
        | Some _ | None -> 0
      in
      (* the scenario is re-instantiated per run inside run_schedule,
         so we rebuild the instance alongside it to drain afterwards:
         run_schedule exposes no handle.  Re-run with a fresh instance
         of our own instead. *)
      match
        let inst = Mem_model.unmonitored scenario.Scenario.instantiate in
        let scenario' = { scenario with Scenario.instantiate = (fun () -> inst) } in
        let report = run_schedule ~max_steps ~frozen scenario' ~decide in
        (* recovery: a survivor drains to empty, helping as it goes *)
        let drained = ref [] in
        let rec drain () =
          match Mem_model.unmonitored (fun () -> inst.Scenario.apply Spec.Op.Pop_left) with
          | Spec.Op.Got v ->
              drained := v :: !drained;
              drain ()
          | Spec.Op.Empty -> ()
          | Spec.Op.Okay | Spec.Op.Full -> assert false
        in
        drain ();
        (* final representation invariant, post-recovery *)
        (match inst.Scenario.invariant with
        | None -> ()
        | Some chk -> (
            match Mem_model.unmonitored chk with
            | Ok () -> ()
            | Error e -> raise (Invariant_violation e)));
        conserves report (List.rev !drained)
      with
      | true -> try_crash (j + 1)
      | false -> Error j
      | exception Step_limit -> Error j
      | exception Invariant_violation _ -> Error j
    end
  in
  try_crash 0
