(** Caller-facing resilience policies over any deque implementation:
    deadline-bounded operations, bounded backoff retries, and a
    graceful-degradation chain for bounded deques at capacity
    (experiments E19/E20).

    The paper's deques answer honestly ([`Full] at capacity, [`Empty]
    when drained) and never block; this wrapper turns those answers
    into a service-level contract without touching the algorithms: the
    wrapped operations remain plain sequences of linearizable attempts,
    so conservation (no loss, no duplication) holds across the whole
    chain, including the overflow deque.  The wrapper counts no
    outcomes: they are the calls' return values. *)

type full_policy =
  | Reject
      (** Surface [`Full] immediately — backpressure to the caller. *)
  | Retry of { max_attempts : int }
      (** Up to [max_attempts] attempts with randomized exponential
          {!Dcas.Backoff} between them, then [`Full]. *)
  | Spill
      (** Divert the value into an unbounded overflow {!List_deque} on
          the same side.  Pops drain the primary first and fall back to
          the overflow; in addition, any call that proves the primary
          has room (a push that landed, a pop that just freed a slot)
          opportunistically moves one parked value back into the
          primary, so the backlog drains under ordinary traffic.
          Availability is preserved, strict deque ordering across the
          two structures is not (an overflowed element can be
          overtaken by later primary traffic). *)

type push_outcome = [ `Okay | `Full | `Timeout ]
type 'a pop_outcome = [ `Value of 'a | `Empty | `Timeout ]

module Make (D : Deque_intf.S) : sig
  type side = [ `Left | `Right ]
  type 'a t

  val name : string

  val create : ?full:full_policy -> capacity:int -> unit -> 'a t
  (** [full] defaults to {!Reject}.

      @raise Invalid_argument if a {!Retry} policy has
      [max_attempts < 1]. *)

  val push : ?deadline:float -> 'a t -> side:side -> 'a -> push_outcome
  val pop : ?deadline:float -> 'a t -> side:side -> 'a pop_outcome

  val push_right : ?deadline:float -> 'a t -> 'a -> push_outcome
  val push_left : ?deadline:float -> 'a t -> 'a -> push_outcome
  val pop_right : ?deadline:float -> 'a t -> 'a pop_outcome
  val pop_left : ?deadline:float -> 'a t -> 'a pop_outcome
  (** [deadline] is this call's budget in seconds, measured from entry
      on {!Dcas.Clock}'s monotonic time; a huge or infinite budget
      never expires.  With a deadline, a push that keeps finding the
      deque full (and a pop that keeps finding it empty) retries with
      backoff until the budget is spent, then returns [`Timeout]; the
      deadline governs even under a {!Retry} policy's attempt cap.
      Without a deadline nothing waits: pops return [`Empty] at once,
      pushes follow the [full] policy ({!Reject} = one attempt). *)

  val push_simple : 'a t -> side:side -> 'a -> Deque_intf.push_result
  val pop_simple : 'a t -> side:side -> 'a Deque_intf.pop_result
  (** Deadline-free views with the plain {!Deque_intf} result types,
      for harnesses that drive every implementation uniformly. *)

  val primary : 'a t -> 'a D.t
  (** The wrapped deque — quiescent-only inspection hook for
      conservation tests. *)

  val overflow_list : 'a t -> 'a list
  (** Values currently parked in the overflow deque (quiescent-only;
      empty unless the policy is {!Spill}). *)
end
