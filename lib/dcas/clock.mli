(** The one clock of [Deque.Policy], [Deque.Sharded],
    [Worksteal.Shard_service] and [Worksteal.Supervisor]:
    CLOCK_MONOTONIC as an immediate int of nanoseconds.  A read
    allocates nothing and never decreases, across domains too; a
    wall-clock step cannot move it. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin (boot on Linux). *)

val ns_of_s : float -> int
(** [s] seconds as nanoseconds, saturating: [max_int] for a span too
    long for an int (infinity and NaN included), 0 for a negative
    one. *)

val after : now:int -> float -> int
(** [after ~now s] is the instant [s] seconds after [now], saturating
    at [max_int], so a huge or infinite budget never expires. *)
