(* Supervision for crash-fault-tolerant work stealing and for the
   sharded service.

   Both [Scheduler.Make.run_supervised] and [Shard_service.Make.run]
   run their workers through this module: one worker record, one
   worker-domain body, and one monitor loop that detects dead, silent
   and zombie workers, fences them, asks the caller to replace their
   slot, and — the subtle part — decides when leftover [pending] units
   are provably phantom and may be written off.  The callers keep only
   what differs: how a slot is replaced, which workers certify
   quiescence, and when new work can no longer arrive.

   Fault model (fail-stop, the paper's Section 1 "a process stops
   forever"): a worker domain can die at any instrumented shared-memory
   point, including mid-CASN with a published undecided descriptor
   ({!Harness.Crash}).  A death can lose pending units in exactly three
   ways, all bounded per death:

   - the task it was {e executing} never finishes (1 unit);
   - a child it was {e spawning} dies inside the push, so the increment
     happened but the task may never have become visible (1 unit);
   - a batch it had {e stolen} — popped from the victim, not yet
     re-queued or run — vanishes with it (up to [steal_batch] units).

   Whatever the dead worker queued is NOT lost: the replacement takes
   it over (the scheduler drains the deque from the thief end, the
   service adopts the home shard).  Only the units above remain, and
   they keep [pending] above zero forever, which would hang termination
   detection.  The quiescence certificate establishes the moment they
   are the ONLY thing keeping [pending] up, so the monitor can
   reconcile the counter to zero without writing off a live task.

   A worker presumed dead may be alive.  The fence makes that safe: the
   monitor sets the worker's [fenced] flag before the caller replaces
   the slot, and the worker checks it after every operation that could
   leave work behind and before every scan, retiring (and giving back
   what it pushed) instead of running beside its replacement. *)

type config = {
  interval : float;
  silence_after : float;
  zombie_after : float;
  quiet_sweeps : int;
}

let default =
  { interval = 0.002; silence_after = 0.25; zombie_after = 0.; quiet_sweeps = 3 }

let validate c =
  if not (c.interval > 0.) then
    invalid_arg "Supervisor: interval must be > 0";
  if c.silence_after < 0. then
    invalid_arg "Supervisor: silence_after must be >= 0";
  if c.zombie_after < 0. then
    invalid_arg "Supervisor: zombie_after must be >= 0";
  if c.quiet_sweeps < 1 then
    invalid_arg "Supervisor: quiet_sweeps must be >= 1"

type report = {
  spawned : int;
  executed : int;
  raised : int;
  killed : int;
  presumed_dead : int;
  adopted : int;
  reconciled : int;
  replacements : int;
  orphans_helped : int;
}

let conserved r = r.spawned = r.executed + r.reconciled

(* --- Workers --- *)

type 'a worker = {
  slot : int;
  certifies : bool;
  own : 'a;
  busy : bool Atomic.t;
  ticks : int Atomic.t;
  scans : int Atomic.t;
  spawned : int Atomic.t;
  executed : int Atomic.t;
  idling : bool Atomic.t;
  fenced : bool Atomic.t;
  died : bool Atomic.t;
  retired : bool Atomic.t;
}

(* Padded: workers' records sit next to each other in the monitor's
   list, and each worker bumps its own counters on its hot path. *)
let worker ~slot ~certifies own =
  let a = Dcas.Padding.make_atomic in
  {
    slot;
    certifies;
    own;
    busy = a false;
    ticks = a 0;
    scans = a 0;
    spawned = a 0;
    executed = a 0;
    idling = a false;
    fenced = a false;
    died = a false;
    retired = a false;
  }

let live w = not (Atomic.get w.died || Atomic.get w.retired)

(* A worker domain's body.  Each slot dies at most once, so a
   replacement enrolled under its predecessor's slot is never killed
   again.  Deaths fire only at instrumented memory operations, so the
   handler runs in a crash-free zone. *)
let body w loop () =
  if w.slot < Harness.Fault.max_slots then Harness.Fault.enroll ~tid:w.slot;
  (try loop () with Harness.Crash.Died -> Atomic.set w.died true);
  Atomic.set w.retired true

type 'a outcome = {
  workers : 'a worker list;
  killed : int;
  presumed_dead : int;
  zombies_fenced : int;
  replacements : int;
  reconciled : int;
  recoveries : float list;
}

let sum o field =
  List.fold_left (fun n w -> n + Atomic.get (field w)) 0 o.workers

(* --- The monitor --- *)

(* The monitor's view of one worker: when its ticks and its progress
   last moved, and its scan count when the quiescence window opened. *)
type 'a tracked = {
  w : 'a worker;
  mutable last_ticks : int;
  mutable last_move : float;
  mutable last_progress : int;
  mutable last_progress_move : float;
  mutable scans0 : int;
}

let scanned_twice t =
  (not (t.w.certifies && live t.w)) || Atomic.get t.w.scans >= t.scans0 + 2

let certifiers n t = if t.w.certifies && live t.w then n + 1 else n

let monitor cfg ~pending ~quiet ~progress ~replace workers =
  let track w now =
    {
      w;
      last_ticks = Atomic.get w.ticks;
      last_move = now;
      last_progress = progress w;
      last_progress_move = now;
      scans0 = Atomic.get w.scans;
    }
  in
  let owners =
    let now = Unix.gettimeofday () in
    Array.of_list (List.map (fun w -> track w now) workers)
  in
  let all = ref (Array.to_list owners) and domains = ref [] in
  let presumed = ref 0 and zombies = ref 0 and reconciled = ref 0 in
  let recoveries = ref [] in
  (* the quiescence window: counters at the last sweep, consecutive
     frozen sweeps, live certifying workers when it opened *)
  let last = ref (-1, -1, -1) and frozen = ref 0 and live0 = ref 0 in
  let finished () =
    Atomic.get pending = 0
    && quiet ()
    && List.for_all (fun t -> Atomic.get t.w.retired) !all
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    for slot = 0 to Array.length owners - 1 do
      let t = owners.(slot) in
      let w = t.w in
      let gone = not (live w) in
      (* both detectors need to know whether the heartbeat moved *)
      let ticks = Atomic.get w.ticks in
      let ticking = ticks <> t.last_ticks in
      if ticking then begin
        t.last_ticks <- ticks;
        t.last_move <- now
      end;
      (* ticks frozen too long: dead without a certificate, or stalled
         mid-operation; a deliberate idle park is not silence *)
      let silent =
        cfg.silence_after > 0. && (not gone) && (not ticking)
        && (not (Atomic.get w.idling))
        && now -. t.last_move >= cfg.silence_after
      in
      (* ticks moving, progress frozen: a zombie.  The ticks must be
         seen moving on the very sweep that crosses the threshold: a
         worker descheduled for a long spell freezes ticks and progress
         together and is no zombie.  Disjoint from [silent], so one
         failure is claimed by one detector. *)
      let zombie =
        cfg.zombie_after > 0. && (not gone) && (not silent) && w.certifies
        &&
        let p = progress w in
        if p <> t.last_progress then begin
          t.last_progress <- p;
          t.last_progress_move <- now;
          false
        end
        else
          ticking
          && (not (Atomic.get w.idling))
          && now -. t.last_progress_move >= cfg.zombie_after
      in
      if Atomic.get w.died || silent || zombie then begin
        if silent then incr presumed;
        if zombie then incr zombies;
        (* fence before replacing: the owners table then points at the
           replacement, so this failure is acted on exactly once *)
        Atomic.set w.fenced true;
        let w', loop = replace w in
        domains := Domain.spawn (body w' loop) :: !domains;
        let up = Unix.gettimeofday () in
        recoveries := (up -. now) :: !recoveries;
        owners.(slot) <- track w' up;
        all := owners.(slot) :: !all
      end
    done;
    (* quiescence: certify that the leftover pending units are phantom *)
    let p = Atomic.get pending in
    let counters =
      ( p,
        List.fold_left (fun n t -> n + Atomic.get t.w.executed) 0 !all,
        List.fold_left (fun n t -> n + Atomic.get t.w.spawned) 0 !all )
    in
    let busy = List.exists (fun t -> live t.w && Atomic.get t.w.busy) !all in
    let certifying = List.fold_left certifiers 0 !all in
    if p = 0 || busy || counters <> !last || certifying <> !live0 then begin
      frozen := 0;
      live0 := certifying;
      List.iter (fun t -> t.scans0 <- Atomic.get t.w.scans) !all
    end
    else begin
      incr frozen;
      if
        !frozen >= cfg.quiet_sweeps
        && certifying > 0
        && List.for_all scanned_twice !all
        && quiet ()
        && Atomic.compare_and_set pending p 0
      then reconciled := !reconciled + p
    end;
    last := counters;
    Unix.sleepf cfg.interval
  done;
  List.iter Domain.join !domains;
  let workers = List.map (fun t -> t.w) !all in
  {
    workers;
    killed = List.length (List.filter (fun w -> Atomic.get w.died) workers);
    presumed_dead = !presumed;
    zombies_fenced = !zombies;
    replacements = List.length !domains;
    reconciled = !reconciled;
    recoveries = List.rev !recoveries;
  }

let run cfg ~pending ~quiet ~progress ~replace ~driver workers =
  let domains =
    List.map (fun (w, loop) -> Domain.spawn (body w loop)) workers
  in
  let workers = List.map fst workers in
  let monitor =
    Domain.spawn (fun () ->
        monitor cfg ~pending ~quiet ~progress ~replace workers)
  in
  let join () =
    List.iter Domain.join domains;
    Domain.join monitor
  in
  (* a raising driver must not leave the run's domains behind *)
  match driver () with
  | () -> join ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (join ());
      Printexc.raise_with_backtrace e bt
