(** Per-domain operation counters backing {!Memory_intf.MEMORY.stats}.

    Each domain counts into its own cache-line-padded bucket of plain
    [int]s, which only that domain writes, so a count on the memory
    models' hot paths is a load-add-store with no locked instruction
    and no cross-domain cache contention.  {!snapshot} sums over every
    domain that has used the counter.

    Other domains read the buckets without synchronization (OCaml 5
    races on an [int] are memory-safe and never tear).  A snapshot
    taken while domains count is therefore a little stale, and exact
    once the counting domains are joined or stopped by a stop-the-world
    collection ([Gc.minor ()]).  A {!reset} is exact only at
    quiescence.  Counters that a concurrent reader acts on, such as the
    liveness counters of [Worksteal.Supervisor], must stay atomic. *)

type t

val create : unit -> t
(** A fresh, independent set of counters (one per memory model). *)

type bucket
(** One domain's counters in a {!t}.  Only the domain that fetched a
    bucket may bump it. *)

val bucket : t -> bucket
(** The calling domain's bucket, created on first use.  The lookup
    costs more than a bump, so an operation that counts several events
    fetches its bucket once. *)

val incr_read : bucket -> unit
val incr_write : bucket -> unit
val incr_attempt : bucket -> unit
val incr_success : bucket -> unit

val incr_fastfail : bucket -> unit
(** Count a DCAS/CASN attempt rejected by pre-validation (see
    {!Memory_intf.stats.dcas_fastfails}). *)

val incr_dcas2 : bucket -> unit
(** Count a slow path taken through the specialized flat [Dcas2]
    descriptor ({!Mem_lockfree}). *)

val incr_desc_alloc : bucket -> unit
(** Count a CASN descriptor allocation ({!Mem_lockfree}). *)

val incr_value_alloc : bucket -> unit
(** Count a fresh [Value] state-block allocation ({!Mem_lockfree});
    elided releases do not count. *)

val incr_orphan : bucket -> unit
(** Count an orphaned descriptor — published by a domain marked dead —
    decided by a surviving helper ({!Mem_lockfree.mark_dead}). *)

val snapshot : t -> Memory_intf.stats
(** Sum of all domains' counters since creation or the last {!reset}:
    exact for domains that are joined or stopped by a stop-the-world
    collection, possibly a few counts behind for domains still
    counting. *)

val reset : t -> unit
(** Zero every domain's counters.  Exact at quiescence; a domain
    counting concurrently may write back a count taken before the
    reset. *)
