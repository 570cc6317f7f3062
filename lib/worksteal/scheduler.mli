(** Work-stealing task scheduler in the style of Arora, Blumofe and
    Plaxton [4] — the load-balancing application the paper cites for
    deques.  Workers pop their own deque's bottom (LIFO) and steal from
    random victims' tops (FIFO); global termination is detected with a
    pending-task counter.

    {!Make} is generic in the deque, so the restricted CAS-only ABP
    deque and the paper's general DCAS deques (by restriction) run
    identical workloads — the comparison of experiment E8.

    Robustness: task bodies run behind a per-task exception barrier (a
    raising task no longer kills its worker and strands the pending
    counter), and the supervised mode tolerates fail-stop worker
    deaths with deque adoption and pending-counter reconciliation —
    experiment E22; see {!Worksteal_intf.SCHEDULER.run_supervised} and
    {!Supervisor}. *)

module Make (D : Worksteal_intf.WORKSTEAL_DEQUE) : Worksteal_intf.SCHEDULER

module Abp_adapter : Worksteal_intf.WORKSTEAL_DEQUE
(** The ABP deque, which implements the restricted interface natively. *)

module Restrict (D : Deque.Deque_intf.S) : Worksteal_intf.WORKSTEAL_DEQUE
(** Any general deque, restricted: owner on the right end, thieves pop
    the left end. *)

module Abp_scheduler : Worksteal_intf.SCHEDULER
module Array_scheduler : Worksteal_intf.SCHEDULER
module List_scheduler : Worksteal_intf.SCHEDULER
module Lock_scheduler : Worksteal_intf.SCHEDULER
