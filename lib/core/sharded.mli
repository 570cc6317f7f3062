(** A sharded deque service front end: K per-core deques behind one
    routing surface, judged by requests-under-SLO rather than
    single-structure ops/s (experiment E24).

    Each shard is a {!Policy.Make} wrapper, so deadlines surface as
    [`Timeout] and full shards degrade per the configured
    {!Policy.full_policy} before the router adds cross-shard overflow
    (pushes) and stealing (pops) on top.  Urgent
    operations use the left end, bulk ones the right — the
    double-ended priority usage of Fatourou et al. (PAPERS.md).

    The composite is {e not} linearizable to a single deque: routing
    and stealing reorder across shards by design.  Its correctness
    story is conservation — no value lost, none duplicated — plus each
    shard's own linearizability, model-checked by the [sharded]
    scenario and soak-tested under fault storms by E24. *)

type stats = {
  pushed : int;  (** external pushes that landed, across all shards *)
  popped : int;  (** external pops served, across all shards *)
  per_shard_pushed : int array;  (** external landings per shard *)
  per_shard_popped : int array;
      (** external serves per shard, a steal credited to its victim *)
}

val mix : int -> int
(** The SplitMix-style affinity hash finalizer (pure; exposed for the
    routing-determinism property test). *)

module Make (D : Deque_intf.S) : sig
  module P : module type of Policy.Make (D)
  (** The per-shard wrapper, exposed so quiescent inspection can reach
      each shard's primary deque and overflow list. *)

  type 'a t

  val name : string

  val create :
    ?full:Policy.full_policy -> shards:int -> capacity:int -> unit -> 'a t
  (** [full] (default {!Policy.Reject}) and [capacity] configure every
      shard's policy wrapper.

      @raise Invalid_argument if [shards < 1]. *)

  val shards : 'a t -> int

  val shard_of : 'a t -> key:int -> int
  (** Home shard for [key] — the pure affinity hash, ignoring
      liveness. *)

  val route : 'a t -> key:int -> int
  (** Home shard, or the next live shard probing upward when the home
      is quarantined (the home itself when every shard is down). *)

  val push :
    ?deadline:float -> ?urgent:bool -> 'a t -> key:int -> 'a ->
    Policy.push_outcome
  (** Push [v] for [key]: urgent entries use the left end, bulk
      (default) the right.  The home shard's policy runs first
      (deadline → [`Timeout], Retry/Spill at capacity); a surviving
      [`Full] triggers one undeadlined attempt on each other live
      shard before [`Full] is surfaced.  A deadline runs on
      {!Dcas.Clock} as an int-ns expiry, so the routed push allocates
      nothing beyond the deque's push, with or without one. *)

  val note_sojourn : 'a t -> shard:int -> ns:int -> unit
  (** Report one request's end-to-end sojourn (enqueue to serve, or to
      shed) against its home [shard].  Feeds the {!Dcas.Histogram}
      behind {!admit}; wait-free and allocation-free, safe from any
      domain. *)

  val sojourn_p99_ns : 'a t -> shard:int -> float option
  (** [shard]'s p99 sojourn in nanoseconds, read as an upper bound at
      most 3.1% above the true p99 ([infinity] past the histogram's
      69 s range); [None] until enough observations (32) have been
      recorded. *)

  val admit : 'a t -> key:int -> budget:float -> bool
  (** Admission control (E25): [false] when the home shard's observed
      p99 sojourn already exceeds [budget] seconds — a request enqueued
      now would almost surely expire before being served, so the caller
      should shed it before pushing.  Admits during cold start (too few
      observations). *)

  val pop :
    ?deadline:float -> ?urgent:bool -> 'a t -> key:int ->
    'a Policy.pop_outcome
  (** Pop for [key]: urgent serves the left end (urgent entries first,
      then the oldest bulk), bulk serves the right (newest bulk).  An
      empty home shard triggers a steal scan that serves one item
      popped off the first non-empty peer's bulk end, credited to that
      peer — quarantined shards included, which is how items stranded
      by a crash stay reachable; a fully empty scan checks the limbo
      stash last.  The routed call allocates nothing beyond what the
      deque operations it reaches allocate, with or without a
      deadline.  With a [deadline] (measured on {!Dcas.Clock}), the
      whole routed operation (home + scan + stash) retries with
      backoff until the budget is spent; exhausting the budget on
      no-finds returns [`Empty] (a certified full no-find scan —
      consumers' quiescence certificates depend on it), never
      [`Timeout]. *)

  val quarantine : 'a t -> shard:int -> unit
  (** Take [shard] out of routing (its deque remains safe storage). *)

  val revive : 'a t -> shard:int -> unit
  (** Put [shard] back in rotation (a replacement owner exists). *)

  val alive : 'a t -> shard:int -> bool

  val adopt : 'a t -> shard:int -> int
  (** Drain a quarantined shard into the survivors (round-robin from
      its right neighbour); returns the number of items moved, [0]
      when no live shard exists to receive them.  Never blocks: an
      item that no live shard will take (all at capacity under
      {!Policy.Reject}) is parked back on the source shard and ends
      the adoption early — and if a straggler push that routed before
      the quarantine stole that freed slot mid-drain (the shards are
      then over-committed), the item escapes to the limbo stash
      instead of re-placing forever.  Safe concurrently with traffic;
      a push that raced the quarantine, or an early end, can leave
      items on the quarantined shard — they stay reachable via the
      steal scan. *)

  val limbo_list : 'a t -> 'a list
  (** Quiescent-only inspection: items currently parked in the limbo
      stash — the unbounded last-resort side list used by adoption's
      park-backs when every bounded shard is at capacity, so the
      control plane terminates instead of spinning.  Pops drain
      it (after the steal scan) and {!drain} empties it; normally
      empty. *)

  val stats : 'a t -> stats
  (** External landings and serves, the only outcomes this layer
      counts: the rest are the calls' return values, and the service
      counts each once in [Shard_service.report].  Internal transfers
      (steals, adoption) are not counted, so [pushed - popped] is the
      number of items resident at quiescence. *)

  val shard : 'a t -> int -> 'a P.t
  (** Quiescent-only inspection hook: the [i]th shard's policy
      wrapper. *)

  val drain : 'a t -> 'a list
  (** Quiescent-only: pop every shard dry (left end; primary then
      overflow), then the limbo stash, and return the values.  Leaves
      service counters untouched, so
      [stats.pushed - stats.popped = length (drain t)] is the
      conservation check. *)
end
