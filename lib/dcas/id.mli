(** Process-wide unique location identifiers.

    Ids are unique and totally ordered, which is all the memory models
    need; they are not handed out in global order.  Each domain reserves
    a block of {!block} ids at a time from one shared counter. *)

val block : int
(** How many ids a domain reserves per refill (1024). *)

val next : unit -> int
(** A fresh identifier; thread-safe, never returned twice, strictly
    increasing across the calls of one domain. *)
