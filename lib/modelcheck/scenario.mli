(** Declarative model-checking scenarios: per-thread scripts of deque
    operations over a fresh instance built on {!Mem_model}.

    [prefill] pushes initial values from the right; [setup] runs
    further operations quiescently before exploration starts (to steer
    the structure into an interesting state, e.g. the two-deleted-node
    configuration of Figure 16, while keeping the explored window
    exhaustively enumerable).  The linearizability oracle starts from
    the abstract state after prefill and setup. *)

type instance = {
  apply : int Spec.Op.op -> int Spec.Op.res;
  invariant : (unit -> (unit, string) result) option;
      (** evaluated by the explorer after every shared-memory step —
          the executable RepInv obligation of Section 5 *)
}

type t = {
  name : string;
  capacity : int option;
  initial : int list;
  threads : int Spec.Op.op list array;
  instantiate : unit -> instance;
}

val deque :
  ?setup:int Spec.Op.op list ->
  ?capacity:int ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  (unit -> int Deque.Deque_intf.handle) ->
  t
(** A scenario over any deque: [handle ()] builds a fresh instance per
    schedule, and the explorer drives it through the handle, checking
    its invariant (when it has one) after every step.  [capacity]
    bounds the oracle (default: unbounded). *)

val array_deque :
  ?hints:bool ->
  ?setup:int Spec.Op.op list ->
  name:string ->
  length:int ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t

val list_deque :
  ?recycle:bool ->
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t

val list_deque_dummy :
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t

val list_deque_casn :
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t

val list_deque_buggy :
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** The deliberately broken list deque of {!Buggy_deque}: the pop's
    claiming DCAS drops the logical-delete bit.  The fuzzer must find a
    linearizability violation here; the correct deques must survive the
    same budget. *)

val list_deque_chaos :
  ?fail_prob:float ->
  ?freeze_prob:float ->
  ?freeze_spins:int ->
  ?chaos_seed:int ->
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** The (correct) list deque over the model memory behind
    {!Harness.Fault.Mem}, with {!Harness.Chaos} armed: every explored
    schedule additionally sees seeded spurious DCAS failures at rate
    [fail_prob] and, with [freeze_prob] > 0, bounded freezes of
    [freeze_spins] spins at shared-memory access points (default
    0 / 8).  Fault streams restart from [chaos_seed] at every
    instantiation, keeping exploration sound.  Chaos is global: it
    stays armed after the run, and its hits are read from
    {!Harness.Chaos}. *)

val st_deque :
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** The Sundell–Tsigas single-word-CAS deque ({!Baselines.St_deque})
    over the model memory via its one-entry-casn shim: every shared
    read and CAS of the production algorithm text is a scheduling
    point, and its weak per-step representation invariant (next chain
    reaches tail, head unmarked, chained nodes valued) is checked
    after every step. *)

val st_deque_chaos :
  ?fail_prob:float ->
  ?freeze_prob:float ->
  ?freeze_spins:int ->
  ?chaos_seed:int ->
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** {!st_deque} over the same chaos-armed model memory as
    {!list_deque_chaos}: spurious CAS failures (and optional bounded
    freezes) woven into every explored schedule through the one-entry
    [casn], exercising the helping paths harder.  Fault streams
    restart from [chaos_seed] at every instantiation. *)

val st_deque_buggy :
  ?setup:int Spec.Op.op list ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** The planted-bug variant {!Baselines.Buggy_st_deque}: helping never
    physically unlinks, so a schedule with two pops on one side spins
    forever — the fuzzer must catch it as a step-limit violation. *)

val sharded :
  ?shards:int ->
  ?capacity:int ->
  ?adopt_token:int ->
  ?shed_token:int ->
  ?fence_adoption:bool ->
  name:string ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
(** The sharded service front end ({!Deque.Sharded}, experiments
    E24/E25) over model-memory array deques: [shards] Reject-policy
    shards of [capacity] each behind affinity routing, cross-shard
    push overflow and pop stealing.  The composite is {e not}
    linearizable to one deque — explore with [check:`None]; its
    obligations are the per-step invariant (every shard's
    representation invariant, no value resident twice across the
    service, no shed value resident or shed twice) plus
    {!Explorer.check_crash}'s drain-and-conserve check, whose
    single-in-flight-item accounting matches a steal: it holds one
    item in hand, the one it serves.  Pushes route by their own value,
    pops by key 0 (so an empty home shard exercises the steal scan).

    Pushing [adopt_token] (default: disabled) instead quarantines,
    adopts and revives the token's home shard — the control-plane
    action whose races against routing this scenario explores; it
    reports [Full], which every checker ignores.  With
    [fence_adoption:false] it runs the planted zombie-adoption bug of
    E25 instead: the pre-fence, pre-limbo drain (no quarantine, and an
    unplaceable park-back re-places forever instead of escaping to
    {!Deque.Sharded}'s limbo stash) — a racing push takes the freed
    slot, over-commits the bounded shards, and the spin is caught as a
    step-limit (liveness) violation; the fenced variant survives the
    same schedules.

    Pushing [shed_token] (default: disabled) models E25's deadline
    shed: an urgent pop through the token's route whose value is
    {e discarded} into a shed log — the invariant then checks the
    conservation face of shedding against steal/adoption races.

    Scripts must use distinct non-token values. *)

val greenwald_v1 :
  ?setup:int Spec.Op.op list ->
  name:string ->
  length:int ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t

val greenwald_v2 :
  ?setup:int Spec.Op.op list ->
  name:string ->
  length:int ->
  prefill:int list ->
  int Spec.Op.op list list ->
  t
