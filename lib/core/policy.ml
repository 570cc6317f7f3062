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
     [Reject] surfaces [`Full] immediately (backpressure, counted);
     [Retry { max_attempts }] retries with backoff, then surfaces
     [`Full] (or [`Timeout] if a deadline expired first);
     [Spill] diverts the value into an unbounded overflow
     {!List_deque} on the same side, trading strict deque ordering for
     availability — pops drain the primary first and fall back to the
     overflow, so no value is ever lost or duplicated, but an element
     that overflowed can be overtaken by later primary-deque traffic.
     Parked values also drain {e back} opportunistically: any call that
     proves the primary has room (a push that landed, a pop that just
     freed a slot) moves one overflowed value back into the primary and
     counts it as a refill, so a burst's backlog melts away under
     ordinary traffic instead of waiting for the primary to empty.

   - {e backpressure / starvation accounting}: per-wrapper counters
     (successes, rejections, retries, spills, timeouts) and the maximum
     observed single-call latency, cheap enough to stay on in
     production harnesses; per-thread fairness over a whole run is
     computed by {!Harness.Metrics.Starvation} from the runner's
     per-thread counts.

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

type stats = {
  ok : int;  (* operations that completed with `Okay / `Value *)
  full_rejections : int;  (* pushes surfaced as `Full *)
  empty_misses : int;  (* pops surfaced as `Empty *)
  timeouts : int;  (* operations surfaced as `Timeout *)
  retries : int;  (* extra attempts beyond each operation's first *)
  spilled : int;  (* pushes diverted to the overflow deque *)
  spill_drained : int;  (* pops served from the overflow deque *)
  refilled : int;  (* parked values moved back into the primary *)
  overflow_size : int;  (* values currently parked in the overflow *)
  max_latency_ns : int;  (* worst single completed call *)
}

let pp_stats ppf s =
  Format.fprintf ppf
    "ok=%d full=%d empty=%d timeout=%d retries=%d spill=%d/%d refill=%d \
     pending=%d max_latency=%dns"
    s.ok s.full_rejections s.empty_misses s.timeouts s.retries s.spilled
    s.spill_drained s.refilled s.overflow_size s.max_latency_ns

(* A tiny concurrent latency sketch for admission control: power-of-two
   nanosecond buckets under padded atomic counters.  Writers only ever
   [Atomic.incr] one bucket, so recording is wait-free and cheap enough
   for every served request; readers fold the counters for a
   conservative (bucket-upper-bound) quantile.  Reads racing writes can
   be off by in-flight increments — fine for a shedding heuristic,
   which only needs the order of magnitude of the tail. *)
module Lat = struct
  let buckets = 64

  type t = int Atomic.t array

  let create () : t =
    Array.init buckets (fun _ -> Dcas.Padding.make_atomic 0)

  let bucket_of ~ns =
    if not (ns >= 2.) (* also NaN *) then 0
    else
      let b = int_of_float (Float.log2 ns) in
      if b >= buckets then buckets - 1 else b

  let note (t : t) ~ns = Atomic.incr t.(bucket_of ~ns)
  let count (t : t) = Array.fold_left (fun n c -> n + Atomic.get c) 0 t

  (* Upper bound of the bucket holding the q-th ranked observation:
     never underestimates the tail by more than one doubling. *)
  let quantile_ns (t : t) q =
    let total = count t in
    if total = 0 then 0.
    else
      let rank =
        let r = int_of_float (ceil (q *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let rec go b seen =
        if b >= buckets then Float.pow 2. (float_of_int buckets)
        else
          let seen = seen + Atomic.get t.(b) in
          if seen >= rank then Float.pow 2. (float_of_int (b + 1))
          else go (b + 1) seen
      in
      go 0 0
end

module Make (D : Deque_intf.S) = struct
  module Overflow = List_deque.Lockfree

  type side = [ `Left | `Right ]

  type 'a t = {
    primary : 'a D.t;
    overflow : 'a Overflow.t option;  (* Some iff policy is Spill *)
    full : full_policy;
    (* padded counters: the wrapper must not introduce contention the
       structure itself avoids *)
    c_ok : int Atomic.t;
    c_full : int Atomic.t;
    c_empty : int Atomic.t;
    c_timeout : int Atomic.t;
    c_retries : int Atomic.t;
    c_spilled : int Atomic.t;
    c_drained : int Atomic.t;
    c_refilled : int Atomic.t;
    c_max_ns : int Atomic.t;
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
      c_ok = Dcas.Padding.make_atomic 0;
      c_full = Dcas.Padding.make_atomic 0;
      c_empty = Dcas.Padding.make_atomic 0;
      c_timeout = Dcas.Padding.make_atomic 0;
      c_retries = Dcas.Padding.make_atomic 0;
      c_spilled = Dcas.Padding.make_atomic 0;
      c_drained = Dcas.Padding.make_atomic 0;
      c_refilled = Dcas.Padding.make_atomic 0;
      c_max_ns = Dcas.Padding.make_atomic 0;
    }

  let stats t =
    {
      ok = Atomic.get t.c_ok;
      full_rejections = Atomic.get t.c_full;
      empty_misses = Atomic.get t.c_empty;
      timeouts = Atomic.get t.c_timeout;
      retries = Atomic.get t.c_retries;
      spilled = Atomic.get t.c_spilled;
      spill_drained = Atomic.get t.c_drained;
      refilled = Atomic.get t.c_refilled;
      overflow_size =
        (match t.overflow with
        | None -> 0
        | Some o -> List.length (Overflow.unsafe_to_list o));
      max_latency_ns = Atomic.get t.c_max_ns;
    }

  let rec raise_max (c : int Atomic.t) ns =
    let cur = Atomic.get c in
    if ns > cur && not (Atomic.compare_and_set c cur ns) then raise_max c ns

  let note_latency t ~t0 =
    raise_max t.c_max_ns (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

  (* Deadline bookkeeping: [deadline] is a per-call budget in seconds,
     measured from the call's entry.  [None] = no deadline. *)
  let expired ~t0 = function
    | None -> false
    | Some budget -> Unix.gettimeofday () -. t0 >= budget

  let finish t ~t0 (counter : int Atomic.t) outcome =
    Atomic.incr counter;
    note_latency t ~t0;
    outcome

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

  (* Opportunistic drain-back for Spill: a call that just proved the
     primary has room (a push that landed, a pop that freed a slot)
     moves at most one parked value back in on the same side.  The
     [c_spilled - c_drained - c_refilled] hint keeps the common case
     (nothing parked) to three counter reads — no shared-structure
     traffic.  The move is two linearizable steps, not one: a
     concurrent observer can catch the value in hand, so quiescent
     conservation views must run with no call in flight (unchanged). *)
  let overflow_hint t =
    Atomic.get t.c_spilled - Atomic.get t.c_drained - Atomic.get t.c_refilled

  let try_refill t ~side =
    match t.overflow with
    | None -> ()
    | Some _ when overflow_hint t <= 0 -> ()
    | Some o -> (
        match
          match side with
          | `Right -> Overflow.pop_right o
          | `Left -> Overflow.pop_left o
        with
        | `Empty -> ()
        | `Value v -> (
            match push_primary t ~side v with
            | `Okay -> Atomic.incr t.c_refilled
            | `Full ->
                (* the slot was taken concurrently: re-park the value on
                   the side it came from (the list overflow is unbounded,
                   so this cannot refuse — loop for the type system) *)
                let rec park () =
                  match
                    match side with
                    | `Right -> Overflow.push_right o v
                    | `Left -> Overflow.push_left o v
                  with
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
  let rec push_from t ~t0 ~deadline ~side v attempt b : push_outcome =
    match push_primary t ~side v with
    | `Okay ->
        try_refill t ~side;
        finish t ~t0 t.c_ok `Okay
    | `Full -> (
        match t.full with
        | Spill -> (
            match push_overflow t ~side v with
            | `Okay ->
                Atomic.incr t.c_spilled;
                finish t ~t0 t.c_ok `Okay
            | `Full ->
                (* overflow allocation failed: genuine saturation *)
                finish t ~t0 t.c_full `Full)
        | Reject | Retry _ ->
            let budgeted =
              match t.full with Retry { max_attempts } -> max_attempts | _ -> 1
            in
            if deadline <> None then
              if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
              else begin
                Atomic.incr t.c_retries;
                let b = Dcas.Backoff.failed b in
                if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
                else push_from t ~t0 ~deadline ~side v (attempt + 1) b
              end
            else if attempt < budgeted then begin
              Atomic.incr t.c_retries;
              push_from t ~t0 ~deadline ~side v (attempt + 1)
                (Dcas.Backoff.failed b)
            end
            else finish t ~t0 t.c_full `Full)

  let push ?deadline t ~side v : push_outcome =
    let t0 = Unix.gettimeofday () in
    if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
    else push_from t ~t0 ~deadline ~side v 1 Dcas.Backoff.idle

  (* --- pop --- *)

  let pop_primary t ~side =
    match side with
    | `Right -> D.pop_right t.primary
    | `Left -> D.pop_left t.primary

  let pop_overflow t ~side =
    match t.overflow with
    | None -> `Empty
    | Some o -> (
        match side with
        | `Right -> Overflow.pop_right o
        | `Left -> Overflow.pop_left o)

  let rec pop_from t ~t0 ~deadline ~side b : 'a pop_outcome =
    match pop_primary t ~side with
    | `Value _ as got ->
        (* the pop freed one slot: prime it with a parked value *)
        try_refill t ~side;
        finish t ~t0 t.c_ok got
    | `Empty -> (
        match pop_overflow t ~side with
        | `Value _ as got ->
            Atomic.incr t.c_drained;
            finish t ~t0 t.c_ok got
        | `Empty ->
            if deadline = None then finish t ~t0 t.c_empty `Empty
            else if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
            else begin
              Atomic.incr t.c_retries;
              let b = Dcas.Backoff.failed b in
              if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
              else pop_from t ~t0 ~deadline ~side b
            end)

  let pop ?deadline t ~side : 'a pop_outcome =
    let t0 = Unix.gettimeofday () in
    if expired ~t0 deadline then finish t ~t0 t.c_timeout `Timeout
    else pop_from t ~t0 ~deadline ~side Dcas.Backoff.idle

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
