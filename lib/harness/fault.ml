(* The victim side of fault injection.

   Three injectors stop a worker in three ways: a self-stall or a
   freeze parks it mid-operation for a while ({!Stall}), a zombie keeps
   it ticking without progress ({!Stall.Zombie}), and a crash stops it
   for good ({!Crash}) — the paper's Section 1 "process that stops",
   fail-slow and fail-stop.  They all address workers by the same
   dense slot id (a runner's [tid], a supervisor's slot): a test
   freezes "workers 1 and 2 of 3", a storm kills "the first consumer".
   So they share one table here: one capacity, one bounds check, one
   [enroll] that makes a domain every injector's victim, one [reset].
   {!Stall} and {!Crash} only raise and read the flags; the victim
   reads them in [Mem], before every shared-memory operation, so a
   park or a death lands inside whatever operation the victim is
   executing, holding whatever intermediate state it has published.

   A fourth injector, {!Chaos}, needs no slot: it makes every domain's
   DCAS lose now and then, as a weak compare-and-swap may, and stalls
   it for a few spins — the adversary the paper's retry loops must
   absorb.  [Mem] draws its faults after the slot checks.

   Crash deaths come in two flavours: at the instrumented point, or
   mid-CASN — via {!Dcas.Mem_lockfree}'s publish hook, right after the
   victim installs its own descriptor and before its status is
   decided, the worst reachable crash point: an undecided descriptor
   that survivors must help to completion.  Marking the domain dead in
   the substrate before arming closes the accounting race: anything it
   publishes from then on is an orphan.  Deaths are targeted (a kill
   request on the slot) or drawn from per-domain SplitMix streams
   derived from a seed, like chaos faults; a slot dies at most once, so
   a replacement enrolled under its predecessor's slot is never
   re-killed. *)

exception Died

(* Fixed capacity keeps every check an array load; 64 comfortably
   exceeds any worker count the harness spawns. *)
let max_slots = 64

let check_tid ~who tid =
  if tid < 0 || tid >= max_slots then
    invalid_arg (Printf.sprintf "%s: tid must be in [0, %d)" who max_slots)

type slot = {
  frozen : bool Atomic.t;  (* park at the next point until thawed *)
  parked : bool Atomic.t;
  parks : int Atomic.t;
  zombie : bool Atomic.t;  (* the work loop skips its operations *)
  bites : int Atomic.t;
  kill : bool Atomic.t;  (* a targeted death is requested *)
  kill_mid_casn : bool Atomic.t;
  dead : bool Atomic.t;
}

let slots =
  Array.init max_slots (fun _ ->
      let a = Dcas.Padding.make_atomic in
      {
        frozen = a false;
        parked = a false;
        parks = a 0;
        zombie = a false;
        bites = a 0;
        kill = a false;
        kill_mid_casn = a true;
        dead = a false;
      })

let slot ~who tid =
  check_tid ~who tid;
  slots.(tid)

(* A per-domain seeded stream and the configuration epoch it was
   derived for. *)
type stream = { mutable epoch : int; mutable rng : Dcas.Splitmix.t }

(* Per-domain state: the enrolled slot, the pending self-stall, the
   armed "die at my next publish" flag, and the death-verdict and
   chaos streams. *)
type self = {
  mutable tid : int;
  mutable countdown : int;
  mutable duration : float;
  mutable die_at_publish : bool;
  death_stream : stream;
  chaos_stream : stream;
}

let key : self Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let stream () = { epoch = -1; rng = Dcas.Splitmix.create ~seed:0 } in
      {
        tid = -1;
        countdown = -1;
        duration = 0.;
        die_at_publish = false;
        death_stream = stream ();
        chaos_stream = stream ();
      })

let enroll ~tid =
  check_tid ~who:"Fault.enroll" tid;
  (Domain.DLS.get key).tid <- tid

let set_stall ~countdown ~duration =
  let d = Domain.DLS.get key in
  d.countdown <- countdown;
  d.duration <- duration

let stall_countdown () = (Domain.DLS.get key).countdown

(* Probabilities are stored as parts-per-million so the hot path
   compares ints, never floats. *)
let ppm_of_prob ~who ~what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "%s: %s must be in [0, 1]" who what);
  int_of_float (p *. 1_000_000.)

(* A domain's stream for the configuration [epoch]: on its first draw
   in a new epoch the domain takes the next number from [handout] and
   derives its stream from (seed, number), so re-arming restarts every
   stream and the same seed replays the same faults (exactly for one
   domain, per first-use order for several). *)
let rng_for (st : stream) ~handout ~seed ~epoch =
  if st.epoch <> epoch then begin
    let n = Atomic.fetch_and_add handout 1 in
    st.epoch <- epoch;
    (* decorrelate nearby (seed, number) pairs with one golden-ratio
       step per number before the stream starts *)
    let s = Dcas.Splitmix.create ~seed in
    for _ = 0 to n do
      ignore (Dcas.Splitmix.next_int64 s)
    done;
    st.rng <- Dcas.Splitmix.split s
  end;
  st.rng

let draw rng ppm = ppm > 0 && Dcas.Splitmix.int rng ~bound:1_000_000 < ppm

(* Probabilistic deaths: an epoch so re-arming restarts the per-domain
   streams deterministically. *)
type deaths = {
  prob_ppm : int;
  mid_casn_ppm : int;
  max_kills : int;
  seed : int;
  epoch : int;
}

let deaths =
  Atomic.make
    { prob_ppm = 0; mid_casn_ppm = 0; max_kills = 0; seed = 0; epoch = 0 }

let death_streams = Atomic.make 0
let kills = Atomic.make 0
let mid_casn_kills = Atomic.make 0

(* The one global publish hook: raise iff THIS domain armed itself.
   Installed the first time a death is requested, so uninjected runs
   never pay for it. *)
let hook () =
  let d = Domain.DLS.get key in
  if d.die_at_publish then begin
    d.die_at_publish <- false;
    Atomic.incr mid_casn_kills;
    raise Died
  end

let hook_installed = Atomic.make false

let install_hook () =
  if not (Atomic.get hook_installed) then
    if Atomic.compare_and_set hook_installed false true then
      Dcas.Mem_lockfree.set_publish_hook hook

let arm_deaths ~prob_ppm ~mid_casn_ppm ~max_kills ~seed =
  if prob_ppm > 0 then install_hook ();
  let prev = Atomic.get deaths in
  Atomic.set death_streams 0;
  Atomic.set deaths
    { prob_ppm; mid_casn_ppm; max_kills; seed; epoch = prev.epoch + 1 }

(* Chaos: the spurious-failure, delay and freeze probabilities, the
   spin bounds, and the seed and epoch of its streams. *)
type chaos = {
  fail_ppm : int;
  delay_ppm : int;
  max_delay : int;
  freeze_ppm : int;
  freeze_spins : int;
  seed : int;
  epoch : int;
}

let chaos =
  Atomic.make
    {
      fail_ppm = 0;
      delay_ppm = 0;
      max_delay = 0;
      freeze_ppm = 0;
      freeze_spins = 0;
      seed = 0;
      epoch = 0;
    }

let chaos_streams = Atomic.make 0
let chaos_spurious = Dcas.Padding.make_atomic 0
let chaos_delays = Dcas.Padding.make_atomic 0
let chaos_freezes = Dcas.Padding.make_atomic 0

let arm_chaos ~fail_ppm ~delay_ppm ~max_delay ~freeze_ppm ~freeze_spins ~seed =
  let prev = Atomic.get chaos in
  Atomic.set chaos_streams 0;
  Atomic.set chaos
    {
      fail_ppm;
      delay_ppm;
      max_delay;
      freeze_ppm;
      freeze_spins;
      seed;
      epoch = prev.epoch + 1;
    }

let disarm_chaos () =
  arm_chaos ~fail_ppm:0 ~delay_ppm:0 ~max_delay:0 ~freeze_ppm:0
    ~freeze_spins:0 ~seed:0

let armed c = c.fail_ppm > 0 || c.delay_ppm > 0 || c.freeze_ppm > 0
let chaos_armed () = armed (Atomic.get chaos)

let reset () =
  arm_deaths ~prob_ppm:0 ~mid_casn_ppm:0 ~max_kills:0 ~seed:0;
  disarm_chaos ();
  Array.iter
    (fun s ->
      Atomic.set s.frozen false;
      Atomic.set s.parked false;
      Atomic.set s.parks 0;
      Atomic.set s.zombie false;
      Atomic.set s.bites 0;
      Atomic.set s.kill false;
      Atomic.set s.kill_mid_casn true;
      Atomic.set s.dead false)
    slots;
  List.iter
    (fun c -> Atomic.set c 0)
    [ kills; mid_casn_kills; chaos_spurious; chaos_delays; chaos_freezes ];
  (Domain.DLS.get key).die_at_publish <- false;
  Dcas.Mem_lockfree.clear_dead ()

(* Claim one unit of the probabilistic kill budget. *)
let rec claim_budget max_kills =
  let n = Atomic.get kills in
  if n >= max_kills then false
  else if Atomic.compare_and_set kills n (n + 1) then true
  else claim_budget max_kills

(* [mid] = die at the next publish of our own descriptor (only when the
   imminent operation is DCAS-shaped); otherwise die right here. *)
let die (d : self) s ~mid =
  Atomic.set s.dead true;
  Dcas.Mem_lockfree.mark_dead (Domain.self () :> int);
  if mid then d.die_at_publish <- true else raise Died

let crash_point d s ~casn =
  if Atomic.get s.kill then begin
    let want_mid = Atomic.get s.kill_mid_casn in
    (* a mid-CASN request waits for a DCAS-shaped operation *)
    if casn || not want_mid then begin
      Atomic.set s.kill false;
      Atomic.incr kills;
      die d s ~mid:(want_mid && casn)
    end
  end
  else
    let c = Atomic.get deaths in
    if c.prob_ppm > 0 then begin
      let rng =
        rng_for d.death_stream ~handout:death_streams ~seed:c.seed
          ~epoch:c.epoch
      in
      if draw rng c.prob_ppm && claim_budget c.max_kills then
        die d s ~mid:(casn && draw rng c.mid_casn_ppm)
    end

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* Chaos draws, on every domain, in a fixed order: a delay of
   1..max_delay spins, a freeze of freeze_spins spins, then — for a
   [weak] operation only — the spurious-failure verdict, which it
   returns.  Nothing is drawn, and no stream is derived, while every
   probability is 0. *)
let turbulence (d : self) ~weak =
  let c = Atomic.get chaos in
  if not (armed c) then false
  else begin
    let rng =
      rng_for d.chaos_stream ~handout:chaos_streams ~seed:c.seed
        ~epoch:c.epoch
    in
    if draw rng c.delay_ppm then begin
      Atomic.incr chaos_delays;
      spin (1 + Dcas.Splitmix.int rng ~bound:c.max_delay)
    end;
    if draw rng c.freeze_ppm then begin
      Atomic.incr chaos_freezes;
      spin c.freeze_spins
    end;
    let fail = weak && draw rng c.fail_ppm in
    if fail then Atomic.incr chaos_spurious;
    fail
  end

(* Before every shared operation: the self-stall, then the freeze,
   then the death — a victim frozen with a kill pending parks first
   and dies once thawed — then chaos.  Returns whether chaos fails
   the operation spuriously, which only a [weak] one (dcas, casn)
   may. *)
let point ~casn ~weak =
  let d = Domain.DLS.get key in
  if d.countdown > 0 then begin
    d.countdown <- d.countdown - 1;
    if d.countdown = 0 then begin
      d.countdown <- -1;
      Unix.sleepf d.duration
    end
  end;
  if d.tid >= 0 then begin
    let s = slots.(d.tid) in
    if Atomic.get s.frozen then begin
      Atomic.incr s.parks;
      Atomic.set s.parked true;
      while Atomic.get s.frozen do
        Domain.cpu_relax ()
      done;
      Atomic.set s.parked false
    end;
    if not (Atomic.get s.dead) then crash_point d s ~casn
  end;
  turbulence d ~weak

(* After a DCAS-shaped operation returns: an armed mid-CASN death that
   never fired — pre-validation fast-failed, chaos failed the op
   spuriously, or the substrate has no publish hook — falls back to
   the operation boundary, orphaning nothing. *)
let boundary () =
  let d = Domain.DLS.get key in
  if d.die_at_publish then begin
    d.die_at_publish <- false;
    raise Died
  end

module Mem (M : Dcas.Memory_intf.MEMORY_CASN) :
  Dcas.Memory_intf.MEMORY_CASN with type 'a loc = 'a M.loc = struct
  type 'a loc = 'a M.loc

  let name = M.name ^ "+fault"
  let make = M.make
  let make_padded = M.make_padded

  let get l =
    ignore (point ~casn:false ~weak:false);
    M.get l

  let set l v =
    ignore (point ~casn:false ~weak:false);
    M.set l v

  (* Unpublished locations are invisible to other threads: a fault
     here would test nothing. *)
  let set_private = M.set_private

  let dcas l1 l2 o1 o2 n1 n2 =
    let r =
      (not (point ~casn:true ~weak:true)) && M.dcas l1 l2 o1 o2 n1 n2
    in
    boundary ();
    r

  (* Never fails spuriously: a failing call must return an atomic view
     that differs from the expected values, which a made-up failure
     cannot honour. *)
  let dcas_strong l1 l2 o1 o2 n1 n2 =
    ignore (point ~casn:true ~weak:false);
    let r = M.dcas_strong l1 l2 o1 o2 n1 n2 in
    boundary ();
    r

  type cass = M.cass = Cass : 'a M.loc * 'a * 'a -> cass

  let casn cs =
    let r = (not (point ~casn:true ~weak:true)) && M.casn cs in
    boundary ();
    r

  let stats = M.stats
  let reset_stats = M.reset_stats
end
