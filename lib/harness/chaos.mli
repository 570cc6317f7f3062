(** Seeded chaos: spurious DCAS/CASN failures, bounded delays and
    bounded freezes, drawn before every shared operation of
    {!Fault.Mem} on every domain, enrolled or not.  Draws come from
    per-domain SplitMix streams derived from the configured seed, so
    single-domain runs (e.g. under the model checker) replay their
    faults exactly and multi-domain runs replay per first-use order;
    each [configure] restarts the streams.  {!Fault.reset} disarms
    chaos and zeroes its counters. *)

val configure :
  ?fail_prob:float ->
  ?delay_prob:float ->
  ?max_delay:int ->
  ?freeze_prob:float ->
  ?freeze_spins:int ->
  seed:int ->
  unit ->
  unit
(** Arm chaos.  [fail_prob] is the per-DCAS/CASN spurious failure
    probability; [delay_prob] the per-operation probability of
    spinning 1..[max_delay] times (default 64); [freeze_prob] the
    per-operation probability of spinning [freeze_spins] times
    (default 10 000).  Probabilities default to 0; restarting the
    streams from [seed] is the only effect of a configure that leaves
    them all 0.

    @raise Invalid_argument if a probability is outside [\[0, 1\]] or a
    spin bound is < 1. *)

val disarm : unit -> unit
(** Stop injecting; {!Fault.Mem} becomes transparent to chaos. *)

val armed : unit -> bool
(** Is any chaos probability currently non-zero? *)

val spurious : unit -> int
(** Spurious DCAS/CASN failures injected since the last {!Fault.reset}. *)

val delays : unit -> int
(** Bounded delays injected since the last {!Fault.reset}. *)

val freezes : unit -> int
(** Bounded freezes injected since the last {!Fault.reset}. *)
