(* Progress watchdog: a monitor domain that samples a set of per-thread
   operation counters and, when the system as a whole stops making
   progress for longer than [stall_after] seconds, emits a diagnostic
   snapshot instead of letting CI hang until its outer timeout.

   The watchdog never unblocks anything — OCaml domains cannot be
   interrupted — it makes a global stall *observable*: per-thread op
   counts, the last-known operation of each thread, and the memory
   substrate's counters (including fast-fail, when a stats thunk is
   supplied).  The caller decides what to do with the report:
   the default handler prints it to stderr; bin/stress exits non-zero;
   the lock-freedom tests assert it fires for the planted-livelock
   deque and stays silent for the paper's deques.

   Worker-side costs are one padded-atomic increment per operation
   ([tick]) and an unsynchronized array write for the optional
   operation label ([note]; the monitor's read is racy by design — a
   torn label is acceptable in a diagnostic). *)

type snapshot = {
  waited : float;  (* seconds since the last observed progress *)
  total : int;
  per_thread : int array;
  last_op : string array;
  stats : Dcas.Memory_intf.stats option;
}

let pp_snapshot ppf s =
  Format.fprintf ppf
    "@[<v>watchdog: no progress for %.2fs (%d ops completed)@," s.waited
    s.total;
  Array.iteri
    (fun tid ops ->
      Format.fprintf ppf "  thread %d: %d ops, last op %s@," tid ops
        (if s.last_op.(tid) = "" then "?" else s.last_op.(tid)))
    s.per_thread;
  (match s.stats with
  | Some st -> Format.fprintf ppf "  memory: %a@," Dcas.Memory_intf.pp_stats st
  | None -> ());
  Format.fprintf ppf "@]"

let default_on_stall s = Format.eprintf "%a@." pp_snapshot s

type t = {
  interval : float;
  stall_after : float;
  on_stall : snapshot -> unit;
  stats : (unit -> Dcas.Memory_intf.stats) option;
  ticks : int Atomic.t array;
  last_op : string array;
  stalls : int Atomic.t;  (* completed stall reports *)
  shutdown : bool Atomic.t;
  mutable monitor : unit Domain.t option;
}

let create ?(interval = 0.02) ?(stall_after = 1.0) ?stats
    ?(on_stall = default_on_stall) ~threads () =
  if threads < 1 then invalid_arg "Watchdog.create: threads must be >= 1";
  if not (interval > 0.) then
    invalid_arg "Watchdog.create: interval must be > 0";
  if not (stall_after > 0.) then
    invalid_arg "Watchdog.create: stall_after must be > 0";
  {
    interval;
    stall_after;
    on_stall;
    stats;
    ticks = Array.init threads (fun _ -> Dcas.Padding.make_atomic 0);
    last_op = Array.make threads "";
    stalls = Atomic.make 0;
    shutdown = Atomic.make false;
    monitor = None;
  }

let tick t ~tid = Atomic.incr t.ticks.(tid)
let note t ~tid op = t.last_op.(tid) <- op
let total t = Array.fold_left (fun n c -> n + Atomic.get c) 0 t.ticks
let stalls t = Atomic.get t.stalls
let fired t = stalls t > 0

let snapshot t ~waited =
  {
    waited;
    total = total t;
    per_thread = Array.map Atomic.get t.ticks;
    last_op = Array.copy t.last_op;
    stats = Option.map (fun f -> f ()) t.stats;
  }

let monitor_loop t () =
  let last_total = ref (total t) in
  let last_progress = ref (Unix.gettimeofday ()) in
  let reported = ref false in
  while not (Atomic.get t.shutdown) do
    Unix.sleepf t.interval;
    let now = Unix.gettimeofday () in
    let cur = total t in
    if cur <> !last_total then begin
      last_total := cur;
      last_progress := now;
      reported := false
    end
    else if (not !reported) && now -. !last_progress >= t.stall_after then begin
      (* one report per stall episode; progress re-arms the detector *)
      reported := true;
      t.on_stall (snapshot t ~waited:(now -. !last_progress));
      Atomic.incr t.stalls
    end
  done

let start t =
  match t.monitor with
  | Some _ -> invalid_arg "Watchdog.start: already running"
  | None ->
      Atomic.set t.shutdown false;
      t.monitor <- Some (Domain.spawn (monitor_loop t))

let stop t =
  (match t.monitor with
  | None -> ()
  | Some d ->
      Atomic.set t.shutdown true;
      Domain.join d;
      t.monitor <- None);
  stalls t
