(* Stall injection for the resilience and liveness experiments (E9,
   E14, E19) and the soaks, controller side.  Every mechanism here is
   delivered through {!Fault}: its slot table holds the flags, and its
   instrumented memory is where a victim notices them.

   - {e cooperative self-stalls} ([request]): a thread arranges to go
     to sleep just before its [after_ops]-th subsequent shared-memory
     operation — i.e. genuinely in the middle of a deque operation,
     holding whatever intermediate state the algorithm has published.
     The request is domain-local, so a staller only ever stalls itself.

   - {e adversarial cross-domain freezes} ([Freezer]): a controller
     suspends an enrolled victim at its next shared-memory access point
     and releases it later.  Unlike {!Chaos}'s bounded freezes, a
     frozen domain stays parked until it is thawed, which is exactly
     the paper's Section 1 "stopped process": with up to [threads - 1]
     domains frozen mid-operation, a lock-free structure must let the
     survivors keep completing operations, while anything blocking (a
     lock holder, a turn-passing protocol) stalls system-wide.  The
     controller chooses {e when} to set the flag; the victim parks at
     whatever access point it reaches next, so repeated freeze/thaw
     cycles sample random points inside operations.

   - {e zombies} ([Zombie]): the failure mode neither of the above
     produces — the victim stays scheduled and keeps ticking its
     liveness heartbeat, but does no useful work (a worker wedged in a
     retry loop, spinning on a poisoned connection, live-locked).
     Crash detection never fires (it is not dead) and tick-based
     silence detection never fires (it is not silent); only
     progress-based detection ({!Worksteal.Supervisor}'s
     [zombie_after]) can tell it from a healthy idle worker.  A parked
     victim would stop ticking and look merely silent, so zombies are
     not delivered at shared-memory points: the victim's work loop
     polls [active] each iteration and, while the flag is up, skips the
     operation, keeps its heartbeat ticking and counts one [bite] — the
     counter a storm schedule reads to verify the window landed.

   For the DCAS deques stalls and freezes are harmless by design (any
   other thread helps or works around); for the lock-based baseline the
   equivalent experiment holds the deque's mutex across the same sleep,
   stopping the world. *)

(* A new request overwrites any pending one: requests do not nest or
   queue, each domain has at most one armed stall at a time.  See the
   .mli. *)
let request ~after_ops ~duration =
  if after_ops < 1 then invalid_arg "Stall.request: after_ops must be >= 1";
  if not (duration >= 0.) (* also rejects NaN *) then
    invalid_arg "Stall.request: duration must be >= 0";
  Fault.set_stall ~countdown:after_ops ~duration

(* Idempotent: cancelling with nothing pending is a no-op. *)
let cancel () = Fault.set_stall ~countdown:(-1) ~duration:0.
let pending () = Fault.stall_countdown () > 0

let sum field =
  Array.fold_left (fun n s -> n + Atomic.get (field s)) 0 Fault.slots

module Freezer = struct
  let freeze ~tid =
    Atomic.set (Fault.slot ~who:"Stall.Freezer.freeze" tid).frozen true

  let thaw ~tid =
    Atomic.set (Fault.slot ~who:"Stall.Freezer.thaw" tid).frozen false

  let thaw_all () =
    Array.iter (fun (s : Fault.slot) -> Atomic.set s.frozen false) Fault.slots

  let frozen_now () =
    Array.fold_left
      (fun n (s : Fault.slot) -> if Atomic.get s.parked then n + 1 else n)
      0 Fault.slots

  let freeze_hits () = sum (fun s -> s.Fault.parks)

  let freeze_hits_of ~tid =
    Atomic.get (Fault.slot ~who:"Stall.Freezer.freeze_hits_of" tid).parks
end

module Zombie = struct
  let zombify ~tid =
    Atomic.set (Fault.slot ~who:"Stall.Zombie.zombify" tid).zombie true

  let cure ~tid =
    Atomic.set (Fault.slot ~who:"Stall.Zombie.cure" tid).zombie false

  let active ~tid =
    tid >= 0 && tid < Fault.max_slots && Atomic.get Fault.slots.(tid).zombie

  let bite ~tid = Atomic.incr (Fault.slot ~who:"Stall.Zombie.bite" tid).bites
  let bites () = sum (fun s -> s.Fault.bites)

  let bites_of ~tid =
    Atomic.get (Fault.slot ~who:"Stall.Zombie.bites_of" tid).bites
end
