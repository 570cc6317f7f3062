(* Multi-domain benchmark runner: spawns worker domains, lines them up
   behind a sense barrier so measurement starts simultaneously, runs a
   per-thread body until a stop flag flips, and reports per-thread
   operation counts and wall-clock time.

   On the 2-vCPU VM the tables were measured on, at most two domains
   run at once and the rest time-share preemptively; throughput
   numbers therefore measure synchronization cost under contention and
   oversubscription rather than parallel speedup, as recorded in
   DESIGN.md's substitution table. *)

type result = {
  per_thread : int array;  (* operations completed by each thread *)
  elapsed : float;  (* seconds between barrier release and last join *)
  died : bool array;  (* which threads exited via Crash.Died *)
}

let deaths r = Array.fold_left (fun n d -> if d then n + 1 else n) 0 r.died

let total r = Array.fold_left ( + ) 0 r.per_thread
let throughput r = float_of_int (total r) /. r.elapsed

(* Join every domain, then re-raise the first exception one of them
   raised: one failing domain must not leave the others unjoined. *)
let join_all domains =
  let first =
    List.fold_left
      (fun first d ->
        match Domain.join d with
        | () -> first
        | exception e ->
            if Option.is_some first then first
            else Some (e, Printexc.get_raw_backtrace ()))
      None domains
  in
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) first

(* Join the workers and time the window; the watchdog is stopped
   however the join ends, so an armed monitor never outlives a failed
   run. *)
let join_timed ?watchdog ~t0 domains =
  let stop_watchdog () =
    Option.iter (fun w -> ignore (Watchdog.stop w)) watchdog
  in
  Fun.protect ~finally:stop_watchdog (fun () ->
      join_all domains;
      Unix.gettimeofday () -. t0)

(* [run ~threads ~duration body]: each domain evaluates [body ~tid ~rng]
   repeatedly — the body performs ONE logical operation per call — until
   the duration elapses.  [seed] makes the workers' RNG streams
   reproducible.  [watchdog], when given, is started for the
   measurement window and ticked once per body call, so a system-wide
   stall inside the body surfaces as a diagnostic report instead of a
   hang; it must have been created with at least [threads] threads and
   not yet started. *)
let run ?(seed = 0x5EED) ?watchdog ~threads ~duration body =
  if threads < 1 then invalid_arg "Runner.run: threads must be >= 1";
  let stop = Atomic.make false in
  let started = Atomic.make 0 in
  let per_thread = Array.make threads 0 in
  let master = Dcas.Splitmix.create ~seed in
  let rngs = Array.init threads (fun _ -> Dcas.Splitmix.split master) in
  let tick =
    match watchdog with
    | None -> fun ~tid:_ -> ()
    | Some w -> fun ~tid -> Watchdog.tick w ~tid
  in
  let died = Array.make threads false in
  let worker tid () =
    let rng = rngs.(tid) in
    Atomic.incr started;
    while Atomic.get started < threads do
      Domain.cpu_relax ()
    done;
    let count = ref 0 in
    (* a crash-injected death is a fail-stop fault under test, not an
       error: record it and let the domain retire with its count *)
    (try
       while not (Atomic.get stop) do
         body ~tid ~rng;
         tick ~tid;
         incr count
       done
     with Crash.Died -> died.(tid) <- true);
    per_thread.(tid) <- !count
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  (* wait until all workers are at the barrier, then time the window *)
  while Atomic.get started < threads do
    Domain.cpu_relax ()
  done;
  Option.iter Watchdog.start watchdog;
  let t0 = Unix.gettimeofday () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let elapsed = join_timed ?watchdog ~t0 domains in
  { per_thread; elapsed; died }

(* Fixed-iteration variant: every thread performs exactly [iters]
   operations; used where operation counts must balance exactly (e.g.
   conservation checks in stress tests). *)
let run_fixed ?(seed = 0x5EED) ?watchdog ~threads ~iters body =
  if threads < 1 then invalid_arg "Runner.run_fixed: threads must be >= 1";
  let started = Atomic.make 0 in
  let master = Dcas.Splitmix.create ~seed in
  let rngs = Array.init threads (fun _ -> Dcas.Splitmix.split master) in
  let tick =
    match watchdog with
    | None -> fun ~tid:_ -> ()
    | Some w -> fun ~tid -> Watchdog.tick w ~tid
  in
  let worker tid () =
    let rng = rngs.(tid) in
    Atomic.incr started;
    while Atomic.get started < threads do
      Domain.cpu_relax ()
    done;
    try
      for i = 1 to iters do
        body ~tid ~rng ~i;
        tick ~tid
      done
    with Crash.Died -> ()
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  while Atomic.get started < threads do
    Domain.cpu_relax ()
  done;
  Option.iter Watchdog.start watchdog;
  let t0 = Unix.gettimeofday () in
  join_timed ?watchdog ~t0 domains
