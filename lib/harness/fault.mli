(** The victim side of fault injection: one table of worker slots that
    {!Stall.Freezer}, {!Stall.Zombie} and {!Crash} share, one [enroll],
    one [reset], and one instrumented memory that runs every check
    before each shared operation.  {!Stall}, {!Crash} and {!Chaos} hold
    the controllers that raise the flags; a victim domain reads them
    through {!Mem}. *)

val max_slots : int
(** Capacity of the slot table: worker ids are [0 .. max_slots - 1]. *)

val enroll : tid:int -> unit
(** Make the calling domain worker [tid] of every injector at once: it
    parks while [tid] is frozen and dies when [tid] is killed.
    Un-enrolled domains (supervisors, monitors, the main domain) never
    park and never die.  Zombification is polled by the victim's own
    work loop under the same id ({!Stall.Zombie}).

    @raise Invalid_argument if [tid] is outside [\[0, max_slots)]. *)

val reset : unit -> unit
(** Thaw and cure every slot, disarm probabilistic deaths and chaos,
    forget every death, kill request and hit counter, and clear the
    substrate's dead set ({!Dcas.Mem_lockfree.clear_dead}).  Call
    between experiments; does not un-enroll domains. *)

module Mem (M : Dcas.Memory_intf.MEMORY_CASN) :
  Dcas.Memory_intf.MEMORY_CASN with type 'a loc = 'a M.loc
(** [M] with four checks before every shared operation, in this
    order: the calling domain's pending {!Stall.request} counts down
    (and sleeps when it reaches zero), a frozen slot parks until
    thawed, a pending death fires — at the point, or for a DCAS-shaped
    operation inside it, after its descriptor is published (the
    mid-CASN death needs {!Dcas.Mem_lockfree} at the bottom of [M];
    over any other substrate it falls back to the operation boundary)
    — and armed {!Chaos} draws a delay, a freeze and, for [dcas] and
    [casn], a spurious failure that returns [false] without calling
    [M].  Chaos hits every domain, enrolled or not; [dcas_strong]
    never fails spuriously, and [set_private] is never faulted.  Same
    [loc] type, so structures are otherwise identical. *)

(**/**)

(* The shared state behind the controllers in {!Stall}, {!Crash} and
   {!Chaos}. *)

exception Died

type slot = {
  frozen : bool Atomic.t;
  parked : bool Atomic.t;
  parks : int Atomic.t;
  zombie : bool Atomic.t;
  bites : int Atomic.t;
  kill : bool Atomic.t;
  kill_mid_casn : bool Atomic.t;
  dead : bool Atomic.t;
}

val slots : slot array
val slot : who:string -> int -> slot

val set_stall : countdown:int -> duration:float -> unit
val stall_countdown : unit -> int

val ppm_of_prob : who:string -> what:string -> float -> int
val install_hook : unit -> unit

val arm_deaths :
  prob_ppm:int -> mid_casn_ppm:int -> max_kills:int -> seed:int -> unit

val kills : int Atomic.t
val mid_casn_kills : int Atomic.t

val arm_chaos :
  fail_ppm:int ->
  delay_ppm:int ->
  max_delay:int ->
  freeze_ppm:int ->
  freeze_spins:int ->
  seed:int ->
  unit

val disarm_chaos : unit -> unit
val chaos_armed : unit -> bool
val chaos_spurious : int Atomic.t
val chaos_delays : int Atomic.t
val chaos_freezes : int Atomic.t
