(** Randomized truncated exponential backoff for retry loops.

    A failed DCAS means another operation succeeded (lock-freedom), but
    spinning straight back into the retry loop makes competing
    operations fail each other repeatedly.

    A backoff is a heap record: each {!create} allocates five words.
    Hot retry loops therefore create it on the first failure, not on
    entry: they start from {!idle} and replace their state with
    [failed b] after each failed attempt, so an operation that succeeds
    at once allocates nothing here.  Loops that are not hot may still
    {!create} one per invocation and call {!once} after each failure. *)

type t

val default_min_wait : int
(** Default lower spin bound (4). *)

val default_max_wait : int
(** Default saturation bound for the doubling window (1024). *)

val create : ?min_wait:int -> ?max_wait:int -> unit -> t
(** Fresh backoff state.  [min_wait] and [max_wait] bound the spin count
    per wait (defaults {!default_min_wait} and {!default_max_wait}).

    @raise Invalid_argument unless [1 <= min_wait <= max_wait]. *)

val once : t -> unit
(** Spin for an unbiased random interval in
    [\[min_wait, min_wait + wait)] and double the window (saturating at
    [max_wait]). *)

val reset : t -> unit
(** Return the wait bound to [min_wait] (e.g. after a success). *)

val idle : t
(** The state of a retry loop that has not failed yet.  Shared by every
    loop; never pass it to {!once} or {!reset}. *)

val failed : t -> t
(** [failed b] records one failed attempt: it backs off once, as
    {!once}, and returns the state for the next attempt — [b] itself,
    or, when [b] is {!idle}, a fresh [create ()] with the default
    bounds. *)
