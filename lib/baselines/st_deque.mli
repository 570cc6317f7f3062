(** The Sundell–Tsigas lock-free deque over single-word CAS — the
    practical competitor the source paper's DCAS premise is measured
    against (E23).

    A doubly-linked list between two sentinels.  The [next] chain is
    authoritative with the deletion mark packed into the link word;
    [prev] links are correctable hints.  Pops are two-phase — a marking
    CAS (the linearization point) then a physical unlink — and every
    operation that meets a marked link helps complete the unlink, which
    is what makes the structure lock-free.  See DESIGN.md,
    "Single-word-CAS competitor: Sundell–Tsigas deque". *)

module type CAS = sig
  (** The minimal substrate the algorithm needs: shared locations with
      read, pre-publication write, and single-word CAS. *)

  type 'a loc

  val make : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  val make_padded : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  val get : 'a loc -> 'a
  val set_private : 'a loc -> 'a -> unit

  val cas : 'a loc -> 'a -> 'a -> bool
  (** Single-word compare-and-swap.  The algorithm only ever passes an
      expected value it physically read from the location, so physical
      comparison ([Atomic.compare_and_set]) and [equal]-based
      comparison (the MEMORY_CASN substrates) agree on every call. *)

  val name : string
end

module Atomic_cas : CAS
(** Plain [Atomic] — the production substrate; no MEMORY_CASN
    emulation, no descriptors, no instrumentation. *)

module Of_casn (M : Dcas.Memory_intf.MEMORY_CASN) : CAS
(** Any CASN-capable memory model as a single-word-CAS substrate, via
    one-entry [casn].  This is how the deque runs over the model
    checker's yielding memory ({!Modelcheck.Mem_model}) and the fault
    harness (chaos, stalls, crashes): the instrumentation sees every
    shared access of the identical algorithm text. *)

module type S = sig
  include Deque.Deque_intf.S

  val make : unit -> 'a t
  (** [create] without the (ignored) capacity — the deque is
      unbounded; pushes never return [`Full]. *)

  val unsafe_to_list : 'a t -> 'a list
  (** Quiescent contents, left to right.  Not linearizable. *)

  val check_invariant : 'a t -> (unit, string) result
  (** Executable representation invariant, weak enough to hold after
      every shared-memory step of in-flight operations: the [next]
      chain runs head → tail without cycling, head's [next] link is
      unmarked, chained interior nodes carry values.  ([prev] links
      are hints with no per-step obligation.) *)
end

module Make (C : CAS) : S

module Make_buggy (C : CAS) : S
(** The planted bug of {!Buggy_st_deque}: [help_delete] still marks
    the victim's [prev] link but the physical-unlink phase is removed,
    so a logically deleted node stays chained forever and the next pop
    on that side spins on its marked link.  The fuzzer must flag this
    as a step-limit (lock-freedom) violation; it must not flag
    {!Make}. *)

include S
(** The production instantiation, [Make (Atomic_cas)]. *)
