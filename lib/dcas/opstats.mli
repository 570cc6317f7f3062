(** Per-domain operation counters backing {!Memory_intf.MEMORY.stats}.

    Counters are kept in domain-local atomic buckets so that counting on
    the memory models' hot paths does not introduce cross-domain cache
    contention; {!snapshot} sums over every domain that has used the
    counter. *)

type t

val create : unit -> t
(** A fresh, independent set of counters (one per memory model). *)

val incr_read : t -> unit
val incr_write : t -> unit
val incr_attempt : t -> unit
val incr_success : t -> unit

val incr_fastfail : t -> unit
(** Count a DCAS/CASN attempt rejected by pre-validation (see
    {!Memory_intf.stats.dcas_fastfails}). *)

val incr_dcas2 : t -> unit
(** Count a slow path taken through the specialized flat [Dcas2]
    descriptor ({!Mem_lockfree}). *)

val incr_desc_alloc : t -> unit
(** Count a CASN descriptor allocation ({!Mem_lockfree}). *)

val incr_value_alloc : t -> unit
(** Count a fresh [Value] state-block allocation ({!Mem_lockfree});
    elided releases do not count. *)

val incr_orphan : t -> unit
(** Count an orphaned descriptor — published by a domain marked dead —
    decided by a surviving helper ({!Mem_lockfree.mark_dead}). *)

val snapshot : t -> Memory_intf.stats
(** Sum of all domains' counters since creation or the last {!reset}. *)

val reset : t -> unit
