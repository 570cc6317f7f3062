(* Caller-facing resilience policies over any deque implementation.

   The paper's deques are non-blocking but *honest*: a bounded push at
   capacity answers [`Full], a pop of an empty deque answers [`Empty],
   and under contention an operation may simply take longer.  Callers
   building services on top want a different contract — "give me an
   answer within my deadline, and tell me what to do when the structure
   is saturated".  [Policy.Make (D)] wraps a deque with exactly that:

   - {e deadline-bounded operations}: every operation takes an optional
     [?deadline] (seconds of budget for this call).  Instead of the
     caller spinning on [`Full]/[`Empty], the wrapper retries with the
     substrate's randomized exponential {!Dcas.Backoff} and returns
     [`Timeout] once the budget is spent.  Without a deadline, nothing
     ever blocks: a single attempt (plus the configured bounded
     retries) runs to completion.

   - {e graceful degradation at capacity} (bounded deques): a push that
     finds the deque full consults the [full] policy —
     [Reject] surfaces [`Full] immediately (backpressure);
     [Retry { max_attempts }] retries with backoff, then surfaces
     [`Full] (or [`Timeout] if a deadline expired first);
     [Spill] diverts the value into an unbounded overflow
     {!List_deque} on the same side, trading strict deque ordering for
     availability — pops drain the primary first and fall back to the
     overflow, so no value is ever lost or duplicated, but an element
     that overflowed can be overtaken by later primary-deque traffic.
     Parked values also drain {e back} opportunistically: any call that
     proves the primary has room (a push that landed, a pop that just
     freed a slot) moves one overflowed value back into the primary, so
     a burst's backlog melts away under ordinary traffic instead of
     waiting for the primary to empty.

   Outcomes are the calls' return values; the wrapper counts none of
   them, so its common path writes no shared location of its own and
   adds no contention between the deque's two ends.  Callers count
   what they read (the service in [Shard_service.report], per-thread
   fairness in {!Harness.Metrics.Starvation} from the runner's
   per-thread counts).

   The wrapper adds no atomicity of its own: each underlying operation
   remains linearizable; a retried operation is simply a sequence of
   linearizable attempts, and a spilled push is a push on the overflow
   deque.  Conservation (no loss, no duplication) therefore holds
   across the chain, which test/test_resilience.ml checks under chaos
   injection. *)

type full_policy =
  | Reject  (* surface `Full immediately: backpressure to the caller *)
  | Retry of { max_attempts : int }  (* bounded backoff retries *)
  | Spill  (* divert to an unbounded overflow list deque *)

type push_outcome = [ `Okay | `Full | `Timeout ]
type 'a pop_outcome = [ `Value of 'a | `Empty | `Timeout ]

module Make (D : Deque_intf.S) = struct
  module Overflow = List_deque.Lockfree

  type side = [ `Left | `Right ]

  type 'a t = {
    primary : 'a D.t;
    overflow : 'a Overflow.t option;  (* Some iff policy is Spill *)
    full : full_policy;
    (* Spill's drain-back hint: values parked in the overflow, up on a
       spill, down on a drain or a refill.  Padded, and written only
       while values are parked, so on the common path both ends merely
       read it. *)
    parked : int Atomic.t;
  }

  let name = "policy[" ^ D.name ^ "]"

  let create ?(full = Reject) ~capacity () =
    (match full with
    | Retry { max_attempts } when max_attempts < 1 ->
        invalid_arg "Policy.create: max_attempts must be >= 1"
    | Reject | Retry _ | Spill -> ());
    {
      primary = D.create ~capacity ();
      overflow = (match full with Spill -> Some (Overflow.make ()) | _ -> None);
      full;
      parked = Dcas.Padding.make_atomic 0;
    }

  (* Deadline bookkeeping: [deadline] is a per-call budget in seconds,
     turned at the call's entry into one absolute [expiry].  [None] = no
     deadline: the clock is never read and nothing is allocated. *)
  let expiry_of = function
    | None -> None
    | Some budget -> Some (Unix.gettimeofday () +. budget)

  let expired = function
    | None -> false
    | Some expiry -> Unix.gettimeofday () >= expiry

  (* --- push --- *)

  let push_primary t ~side v =
    match side with
    | `Right -> D.push_right t.primary v
    | `Left -> D.push_left t.primary v

  let push_overflow t ~side v =
    match t.overflow with
    | None -> `Full
    | Some o -> (
        match side with
        | `Right -> Overflow.push_right o v
        | `Left -> Overflow.push_left o v)

  let pop_overflow t ~side =
    match t.overflow with
    | None -> `Empty
    | Some o -> (
        match side with
        | `Right -> Overflow.pop_right o
        | `Left -> Overflow.pop_left o)

  (* Opportunistic drain-back for Spill: a call that just proved the
     primary has room (a push that landed, a pop that freed a slot)
     moves at most one parked value back in on the same side.  The
     [parked] hint keeps the common case (nothing parked) to one read
     of a line nobody writes — no shared-structure traffic.  It is a
     hint, not a count: a racing drain can take it below zero for a
     moment.  The move is two linearizable steps, not one: a
     concurrent observer can catch the value in hand, so quiescent
     conservation views must run with no call in flight (unchanged). *)
  let try_refill t ~side =
    match t.overflow with
    | None -> ()
    | Some _ when Atomic.get t.parked <= 0 -> ()
    | Some _ -> (
        match pop_overflow t ~side with
        | `Empty -> ()
        | `Value v -> (
            match push_primary t ~side v with
            | `Okay -> Atomic.decr t.parked
            | `Full ->
                (* the slot was taken concurrently: re-park the value on
                   the side it came from (the list overflow is unbounded,
                   so this cannot refuse — loop for the type system) *)
                let rec park () =
                  match push_overflow t ~side v with
                  | `Okay -> ()
                  | `Full -> park ()
                in
                park ()))

  (* Retrying is bounded two ways: the Retry policy caps the attempt
     COUNT (exhaustion surfaces as `Full — honest backpressure), while
     a [?deadline] bounds the attempt WINDOW in wall-clock time
     (expiry surfaces as `Timeout).  A deadline is an explicit opt-in
     to waiting, so when one is given it governs: retrying continues
     past the count cap until the budget is spent.

     The retry loops are closed recursive functions whose backoff is
     created at the first retry ([Dcas.Backoff.failed]), so a call that
     needs no retry allocates neither a closure nor a backoff record. *)
  let rec push_from t ~expiry ~side v attempt b : push_outcome =
    match push_primary t ~side v with
    | `Okay ->
        try_refill t ~side;
        `Okay
    | `Full -> (
        match t.full with
        | Spill -> (
            match push_overflow t ~side v with
            | `Okay ->
                Atomic.incr t.parked;
                `Okay
            | `Full ->
                (* overflow allocation failed: genuine saturation *)
                `Full)
        | Reject | Retry _ ->
            let budgeted =
              match t.full with Retry { max_attempts } -> max_attempts | _ -> 1
            in
            if expiry <> None then
              if expired expiry then `Timeout
              else
                let b = Dcas.Backoff.failed b in
                if expired expiry then `Timeout
                else push_from t ~expiry ~side v (attempt + 1) b
            else if attempt < budgeted then
              push_from t ~expiry ~side v (attempt + 1) (Dcas.Backoff.failed b)
            else `Full)

  let push ?deadline t ~side v : push_outcome =
    let expiry = expiry_of deadline in
    if expired expiry then `Timeout
    else push_from t ~expiry ~side v 1 Dcas.Backoff.idle

  (* --- pop --- *)

  let pop_primary t ~side =
    match side with
    | `Right -> D.pop_right t.primary
    | `Left -> D.pop_left t.primary

  let rec pop_from t ~expiry ~side b : 'a pop_outcome =
    match pop_primary t ~side with
    | `Value _ as got ->
        (* the pop freed one slot: prime it with a parked value *)
        try_refill t ~side;
        got
    | `Empty -> (
        match pop_overflow t ~side with
        | `Value _ as got ->
            Atomic.decr t.parked;
            got
        | `Empty ->
            if expiry = None then `Empty
            else if expired expiry then `Timeout
            else
              let b = Dcas.Backoff.failed b in
              if expired expiry then `Timeout
              else pop_from t ~expiry ~side b)

  let pop ?deadline t ~side : 'a pop_outcome =
    let expiry = expiry_of deadline in
    if expired expiry then `Timeout
    else pop_from t ~expiry ~side Dcas.Backoff.idle

  (* The four named operations of the deque vocabulary. *)
  let push_right ?deadline t v = push ?deadline t ~side:`Right v
  let push_left ?deadline t v = push ?deadline t ~side:`Left v
  let pop_right ?deadline t = pop ?deadline t ~side:`Right
  let pop_left ?deadline t = pop ?deadline t ~side:`Left

  (* Deadline-free views with the plain [Deque_intf] result types, for
     harnesses that drive every implementation uniformly.  Without a
     deadline no path produces [`Timeout]. *)
  let push_simple t ~side v : Deque_intf.push_result =
    match push t ~side v with
    | `Okay -> `Okay
    | `Full -> `Full
    | `Timeout -> assert false

  let pop_simple t ~side : 'a Deque_intf.pop_result =
    match pop t ~side with
    | `Value v -> `Value v
    | `Empty -> `Empty
    | `Timeout -> assert false

  (* Quiescent-only inspection hooks for the conservation tests:
     [Deque_intf.S] exposes no generic contents view, so callers that
     know the concrete [D] reach the primary through [primary] and get
     the parked overflow values from [overflow_list].  The union is a
     multiset view, not an ordering claim (see header comment). *)
  let primary t = t.primary

  let overflow_list t =
    match t.overflow with
    | None -> []
    | Some o -> Overflow.unsafe_to_list o
end
