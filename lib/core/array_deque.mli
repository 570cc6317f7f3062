(** The array-based bounded deque of Section 3 (Figures 2, 3, 30, 31).

    A non-blocking, linearizable bounded deque in a circular array,
    supporting uninterrupted concurrent access to both ends.  Boundary
    cases (empty/full) are detected from the pair (index, cell content)
    confirmed atomically by DCAS, not from the relative positions of
    the two indices. *)

module type ALGORITHM = Array_deque_intf.ALGORITHM
(** See {!Array_deque_intf.ALGORITHM}: [make ?hints ~length ()] builds
    an empty deque of capacity [length]; [hints] (default [true])
    enables the paper's two optional optimizations — line 7's index
    re-read and lines 17-18's use of the failing strong-DCAS view;
    with [hints = false] only the weak boolean DCAS is required.
    [unsafe_to_list] and [check_invariant] (the executable Figure 18
    representation invariant) are for quiescent states only. *)

module Make (M : Dcas.Memory_intf.MEMORY) : ALGORITHM
(** The algorithm over an arbitrary memory model — the production
    substrates below, or the model checker's instrumented memory. *)

module Lockfree : ALGORITHM
(** Over {!Dcas.Mem_lockfree}: the fully non-blocking instantiation. *)

module Locked : ALGORITHM
(** Over {!Dcas.Mem_lock} (blocking DCAS emulation). *)

module Striped : ALGORITHM
(** Over {!Dcas.Mem_striped} (striped-lock DCAS emulation). *)

module Sequential : ALGORITHM
(** Over {!Dcas.Mem_seq}: single-threaded use only. *)
