(** A concurrent log-linear histogram of non-negative integer values,
    typically latencies in nanoseconds: the one latency sketch of the
    experiments (E7b, E21, E23–E25) and of [Deque.Sharded]'s admission
    control.

    Values 0–63 are exact; above that each power of two splits into 32
    sub-buckets, up to 2{^36} (about 69 s in nanoseconds).  A quantile
    is the largest value of the bucket holding its rank, so it is never
    below the true nearest-rank value and at most 1/32 (3.1%) above it.
    Values at or past 2{^36} are counted in an explicit overflow bucket
    and never read as a number.  Recording is one wait-free
    [Atomic.incr] that allocates nothing, so one histogram can be
    shared by every domain of a measurement. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Count one value; a negative value counts as 0. *)

val count : t -> int
(** Values recorded so far, overflow included.  Allocates nothing. *)

val quantile : t -> float -> float
(** [quantile t q] is an upper bound on the nearest-rank [q]-quantile
    (rank [ceil (q * count)], at least 1): [infinity] when that rank
    lands in the overflow bucket, [nan] when nothing was recorded. *)

val quantile_int : t -> count:int -> float -> int
(** {!quantile} as an int, for a caller that has just read [count]
    ([> 0]) with {!count}: [max_int] when the rank lands in the
    overflow bucket.  Allocates nothing; [quantile] boxes its float. *)
