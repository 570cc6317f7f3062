(* Seeded chaos, controller side (experiments E18-E20 and the soaks).

   The paper's progress and safety arguments are adversarial: they must
   hold however slowly a processor runs and however often its DCAS
   loses.  Armed chaos makes that adversary executable: before every
   shared operation of {!Fault.Mem}, on every domain, it draws

   - {e bounded delays}: a short spin, a processor losing its timeslice
     mid-operation;
   - {e freezes}: a much longer spin, the paper's Section 1 "stopped
     process" in bounded form ({!Stall.Freezer} holds the unbounded
     one);
   - {e spurious DCAS/CASN failures}: the attempt returns [false]
     without consulting memory, as a weak compare-and-swap (LL/SC, or a
     DCAS emulated with helping) legitimately may.  Retry loops must
     absorb them; an algorithm that treats a failed DCAS as proof of a
     conflicting write is flushed out at once.

   The draws come from per-domain SplitMix streams derived from [seed]
   ({!Fault} holds them and the hit counters), so a failing run is
   replayed by configuring the same seed again. *)

let configure ?(fail_prob = 0.) ?(delay_prob = 0.) ?(max_delay = 64)
    ?(freeze_prob = 0.) ?(freeze_spins = 10_000) ~seed () =
  if max_delay < 1 then invalid_arg "Chaos.configure: max_delay must be >= 1";
  if freeze_spins < 1 then
    invalid_arg "Chaos.configure: freeze_spins must be >= 1";
  let ppm_of_prob = Fault.ppm_of_prob ~who:"Chaos.configure" in
  Fault.arm_chaos
    ~fail_ppm:(ppm_of_prob ~what:"fail_prob" fail_prob)
    ~delay_ppm:(ppm_of_prob ~what:"delay_prob" delay_prob)
    ~max_delay
    ~freeze_ppm:(ppm_of_prob ~what:"freeze_prob" freeze_prob)
    ~freeze_spins ~seed

let disarm = Fault.disarm_chaos
let armed = Fault.chaos_armed
let spurious () = Atomic.get Fault.chaos_spurious
let delays () = Atomic.get Fault.chaos_delays
let freezes () = Atomic.get Fault.chaos_freezes
