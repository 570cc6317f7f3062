(* Non-blocking software DCAS in the style the paper cites as "a
   non-blocking software emulation [8, 30]": a restricted multi-word
   compare-and-swap (CASN) built from single-word CAS with descriptors
   and helping, after Harris, Fraser and Pratt.

   Each location holds a [state]: a plain [Value], or a reference to
   the CASN descriptor that owns it.  An owned location reads as the
   descriptor's [before] value for it until the status word is CASed to
   [Succeeded] (the linearization point of the whole CASN), and as its
   [after] value from then on.  Any thread that meets an undecided
   descriptor while installing its own helps it to completion first,
   so a stalled thread can never block others.  Once decided, each
   location the descriptor still owns is released to a fresh [Value].

   Descriptors come in two layouts, chosen by width.  The flat [dcas2]
   record holds both locations and their values and serves every
   two-location CASN, which is every deque operation in the paper; a
   location it owns holds [A d] or [B d], two words that resolve
   through the descriptor's own fields.  The generic [casn] carries an
   entry array and serves every other width; a location it owns holds
   an [Owned] block with the entry's values.  Both run one protocol:
   [step] is the only code that acquires an entry, and each layout
   keeps only a driver that re-reads the status, sequences its entries
   and decides.

   Every write installs a freshly allocated block (an ownership block,
   or the [Value] of a release or a [set]), and the garbage collector
   keeps an address from being reused while anything refers to it
   (the paper's deques rely on GC the same way, Section 1.1).  So the
   same block at two reads means no write in between.  Two arguments
   rest on that:

   - [step] reads the location's state, then the descriptor's status,
     then installs by a CAS against the block it read.  If the status
     read [Undecided] and the CAS succeeds, the location held that
     [Value] block throughout.  A descriptor that succeeds holds each
     of its locations at its decide (an ownership block is displaced
     only once its descriptor is decided), so it was decided after the
     install, which therefore acquired the entry.  If it failed in
     between, the install reads as [before], equal to the value it
     replaced, until a release puts a fresh [Value] back.  Without the
     status read, a helper that saw [Undecided] before the descriptor
     succeeded and was released could install it over a later write
     that restored [before], and the location would jump to [after].

   - A DCAS whose new values are physically its expected ones writes
     nothing: it is the paper's empty/full confirmation (Figures 2/3
     lines 6-11, Figure 11 lines 8-12), and [dcas_strong]'s failing
     view.  [dcas] answers it without a descriptor when three reads
     agree: [l1] holds a [Value] block [s1] whose value is [o1], [l2]
     resolves to [o2], and [l1] still holds [s1].  [l1] then held [o1]
     between the two reads, so success linearizes at [l2]'s read.
     When the reads disagree the call takes the full path below.

   Entries are acquired in ascending location-id order, which bounds
   helping chains and yields lock-freedom by the standard argument. *)

type status = Undecided | Failed | Succeeded

type 'a loc = {
  id : int;
  state : 'a state Atomic.t;
  equal : 'a -> 'a -> bool;
}

and 'a state =
  | Value of 'a
  | A : ('a, 'b) dcas2 -> 'a state
  | B : ('a, 'b) dcas2 -> 'b state
  | Owned : { desc : casn; before : 'a; after : 'a } -> 'a state

and ('a, 'b) dcas2 = {
  status : status Atomic.t;  (* also the descriptor's identity *)
  owner : int;  (* domain id of the operation's initiator *)
  loc_a : 'a loc;  (* invariant: loc_a.id < loc_b.id *)
  before_a : 'a;
  after_a : 'a;
  loc_b : 'b loc;
  before_b : 'b;
  after_b : 'b;
}

and casn =
  | Casn of { status : status Atomic.t; owner : int; entries : entry array }
and entry = Entry : { loc : 'a loc; before : 'a; after : 'a } -> entry

type cass = Cass : 'a loc * 'a * 'a -> cass

let name = "lockfree"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters

(* The status word of the descriptor an ownership block names.  A
   [Value] names none, and [unowned] is no descriptor's word. *)
let unowned = Atomic.make Failed

let[@inline] holder : type a. a state -> status Atomic.t = function
  | Value _ -> unowned
  | A d -> d.status
  | B d -> d.status
  | Owned { desc = Casn c; _ } -> c.status

(* --- Fail-stop crash bookkeeping (driven by {!Harness.Crash}) ---

   A domain about to be killed is first marked dead; every descriptor
   it publishes from then on is an {e orphan}, and the helper that
   decides such a descriptor's status — the successful Undecided ->
   Succeeded/Failed CAS, which happens exactly once — records it in
   [helped_orphans].  The publish hook lets the crash layer interpose
   {e between} a domain's first successful install of its own
   descriptor and the decide, i.e. die mid-CASN with a live undecided
   descriptor in shared memory: the scenario Theorems 3.1/4.1 promise
   survivors recover from.  Both checks are gated on cheap armed flags
   so the fault-free hot paths are unchanged. *)

let dead_count = Atomic.make 0
let dead_list = Atomic.make ([] : int list)

(* Orphan registry: every descriptor published by an already-dead
   domain, kept as the ownership block that published it.  A dying
   domain publishes at most one (it is killed at its first publish),
   so the registry is exactly the set of descriptors the paper's
   helping protocol must complete on the crashed domain's behalf;
   [help_orphans] lets a supervisor force that completion
   deterministically instead of waiting for a survivor to collide with
   the owned locations.  Reads alone never decide a descriptor
   ([resolve] consults the status without helping), so without this a
   quiescent orphan could stay undecided forever. *)
type orphan = Orphan : 'a state -> orphan

let orphan_registry = Atomic.make ([] : orphan list)

let rec register_orphan : type a. a state -> unit =
 fun own ->
  let cur = Atomic.get orphan_registry in
  if List.exists (fun (Orphan o) -> holder o == holder own) cur then ()
  else if not (Atomic.compare_and_set orphan_registry cur (Orphan own :: cur))
  then register_orphan own

let orphans () = List.length (Atomic.get orphan_registry)

let rec mark_dead id =
  let cur = Atomic.get dead_list in
  if List.memq id cur then ()
  else if Atomic.compare_and_set dead_list cur (id :: cur) then
    Atomic.incr dead_count
  else mark_dead id

let clear_dead () =
  Atomic.set dead_list [];
  Atomic.set dead_count 0;
  Atomic.set orphan_registry []

let dead_domains () = Atomic.get dead_list
let no_hook = fun () -> ()
let publish_hook = Atomic.make no_hook
let hook_armed = Atomic.make false

let set_publish_hook f =
  Atomic.set publish_hook f;
  Atomic.set hook_armed true

let clear_publish_hook () =
  Atomic.set hook_armed false;
  Atomic.set publish_hook no_hook

let self_id () = (Domain.self () :> int)

(* A domain just installed ownership block [own]: if it is the
   descriptor's initiator, give the crash layer its chance to kill the
   domain right here, mid-CASN.  Helpers installing someone else's
   descriptor never trigger the hook. *)
let published : type a. a state -> unit =
 fun own ->
  if Atomic.get hook_armed then begin
    let owner =
      match own with
      | A d -> d.owner
      | B d -> d.owner
      | Owned { desc = Casn c; _ } -> c.owner
      | Value _ -> -1
    in
    if owner = self_id () then begin
      if Atomic.get dead_count > 0 && List.memq owner (Atomic.get dead_list)
      then register_orphan own;
      (Atomic.get publish_hook) ()
    end
  end

(* A status CAS just decided [owner]'s descriptor; if the owner is a
   dead domain and we are not it, a survivor has completed a crashed
   thread's operation.  Status is monotonic, so this runs exactly once
   per descriptor. *)
let decided b owner =
  if
    Atomic.get dead_count > 0
    && owner <> self_id ()
    && List.memq owner (Atomic.get dead_list)
  then Opstats.incr_orphan b

let make ?(equal = ( = )) v =
  { id = Id.next (); state = Atomic.make (Value v); equal }

let make_padded ?(equal = ( = )) v =
  Padding.copy_as_padded
    { id = Id.next (); state = Padding.make_atomic (Value v); equal }

(* The logical value of a state block, given the owning descriptor's
   current status.  Status is monotonic (Undecided -> Failed/Succeeded,
   then frozen), so reading the state block and then its status yields a
   linearizable read: see DESIGN.md, lib/dcas notes.  It allocates
   nothing. *)
let[@inline] resolve : type a. a state -> a = function
  | Value v -> v
  | A d -> if Atomic.get d.status = Succeeded then d.after_a else d.before_a
  | B d -> if Atomic.get d.status = Succeeded then d.after_b else d.before_b
  | Owned { desc = Casn c; before; after } ->
      if Atomic.get c.status = Succeeded then after else before

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  resolve (Atomic.get loc.state)

(* Replace a decided descriptor's ownership block [cur] with a fresh
   [Value] of what it resolves to, counted on the caller's bucket;
   failure means somebody else already moved the location on. *)
let release_one (type a) b (loc : a loc) (cur : a state) =
  Opstats.incr_value_alloc b;
  ignore (Atomic.compare_and_set loc.state cur (Value (resolve cur)))

(* Eagerly release [loc] if the descriptor with status word [status]
   still owns it, so later operations on it take the fast [Value]
   path. *)
let release_own (type a) b status (loc : a loc) =
  let cur = Atomic.get loc.state in
  if holder cur == status then release_one b loc cur

(* What one acquire step found: the entry is held by the descriptor;
   the location must be read again (another descriptor held it and was
   helped or released, the install CAS lost a race, or the descriptor
   is already decided); or its value is not the expected one.
   Constant constructors, so a step allocates only the ownership block
   it installs. *)
type verdict = Acquired | Retry | Mismatch

(* The per-entry protocol, the same for both layouts: read the state;
   help an undecided foreign descriptor or release a decided one; else
   compare with [equal], re-read the status, and install [own d before
   after] by CAS, telling the crash layer when the initiator has
   published.  The status re-read sits between the state read and the
   CAS (see the header).  [help] comes in as an argument so that
   [step] stays outside the recursive group below and is inlined into
   each driver: called out of line, it made two-domain list-deque
   traffic about 10% slower at p50 and p90. *)
let[@inline] step :
    type a d.
    (Opstats.bucket -> a state -> unit) ->
    Opstats.bucket ->
    (d -> a -> a -> a state) ->
    d ->
    status Atomic.t ->
    a loc ->
    a ->
    a ->
    verdict =
 fun help b own d status loc before after ->
  let cur = Atomic.get loc.state in
  match cur with
  | Value v ->
      if not (loc.equal v before) then Mismatch
      else if Atomic.get status <> Undecided then Retry
      else
        let mine = own d before after in
        if Atomic.compare_and_set loc.state cur mine then begin
          published mine;
          Acquired
        end
        else Retry
  | A _ | B _ | Owned _ ->
      let s = holder cur in
      if s == status then Acquired
      else begin
        if Atomic.get s = Undecided then help b cur else release_one b loc cur;
        Retry
      end

let own_a d _ _ = A d
let own_b d _ _ = B d
let own_entry desc before after = Owned { desc; before; after }

(* Helping runs on every DCAS, so its loops are closed top-level
   functions that take all their state as arguments: a local recursive
   closure over the descriptor would be allocated afresh on every call.
   The drivers return true iff this call's CAS decided the status, so
   the orphan accounting ([decided]) runs after them, and every count
   lands on the bucket [b] the operation fetched once.  The fault-free
   path allocates only what the protocol needs: the descriptor, its
   ownership blocks and the released [Value]s. *)
let rec help : type a. Opstats.bucket -> a state -> unit =
 fun b -> function
  | Value _ -> ()
  | A d -> help_dcas2 b d
  | B d -> help_dcas2 b d
  | Owned { desc; _ } -> help_casn b desc

and help_dcas2 : type a c. Opstats.bucket -> (a, c) dcas2 -> unit =
 fun b d ->
  if drive_dcas2 b d false then decided b d.owner;
  release_own b d.status d.loc_a;
  release_own b d.status d.loc_b

and help_casn b (Casn c as desc) =
  if drive_casn b desc 0 then decided b c.owner;
  for i = 0 to Array.length c.entries - 1 do
    let (Entry { loc; _ }) = c.entries.(i) in
    release_own b c.status loc
  done

(* The [dcas2] driver: entry a, then entry b ([on_b]), the status
   re-read before every step. *)
and drive_dcas2 : type a c. Opstats.bucket -> (a, c) dcas2 -> bool -> bool =
 fun b d on_b ->
  Atomic.get d.status = Undecided
  &&
  match
    if on_b then step help b own_b d d.status d.loc_b d.before_b d.after_b
    else step help b own_a d d.status d.loc_a d.before_a d.after_a
  with
  | Acquired when on_b -> Atomic.compare_and_set d.status Undecided Succeeded
  | Acquired -> drive_dcas2 b d true
  | Retry -> drive_dcas2 b d on_b
  | Mismatch -> Atomic.compare_and_set d.status Undecided Failed

(* The [casn] driver: entries [i] on, in order. *)
and drive_casn b (Casn c as desc) i =
  if i >= Array.length c.entries then
    Atomic.compare_and_set c.status Undecided Succeeded
  else
    Atomic.get c.status = Undecided
    &&
    let (Entry { loc; before; after }) = c.entries.(i) in
    match step help b own_entry desc c.status loc before after with
    | Acquired -> drive_casn b desc (i + 1)
    | Retry -> drive_casn b desc i
    | Mismatch -> Atomic.compare_and_set c.status Undecided Failed

(* Complete every orphaned descriptor on the crashed owners' behalf:
   the survivors' side of Theorems 3.1/4.1 made into an API.  Helping
   an already-decided descriptor is a no-op (the drivers exit on a
   decided status), so calling this after organic helping has
   already completed some orphans is safe and counts nothing twice —
   [helped_orphans] ticks only at the single successful status CAS. *)
let help_orphans () =
  let b = Opstats.bucket counters in
  let ds = Atomic.get orphan_registry in
  List.iter (fun (Orphan own) -> help b own) ds;
  List.length ds

let rec set loc v =
  let b = Opstats.bucket counters in
  Opstats.incr_write b;
  let cur = Atomic.get loc.state in
  if Atomic.get (holder cur) = Undecided then help b cur;
  Opstats.incr_value_alloc b;
  if not (Atomic.compare_and_set loc.state cur (Value v)) then set loc v

(* The location is unpublished: no other thread can hold a descriptor
   on it, so a plain store of a fresh Value block suffices. *)
let set_private loc v = Atomic.set loc.state (Value v)

(* Pre-validation fast path: a DCAS whose expected values are already
   stale is doomed, and a single logical read of either location proves
   it.  [resolve] of the current state block is exactly such a read
   (linearizing at the [Atomic.get]), so failing here is
   indistinguishable from installing a descriptor and losing — except
   that it allocates nothing and performs no CAS, which under
   contention is the difference between a cache-line read and a
   read-for-ownership storm.  Mismatch against an owned state needs
   no helping either: the owner's status word alone decides the logical
   value. *)
let doomed (type a) (loc : a loc) (expected : a) =
  not (loc.equal (resolve (Atomic.get loc.state)) expected)

(* The read-only path of a no-op DCAS (see the header).  [false]
   proves nothing: the caller falls back to the full protocol. *)
let confirmed (type a b) (l1 : a loc) (l2 : b loc) (o1 : a) (o2 : b) =
  match Atomic.get l1.state with
  | Value v as s1 ->
      v == o1
      && resolve (Atomic.get l2.state) == o2
      && Atomic.get l1.state == s1
  | A _ | B _ | Owned _ -> false

(* The slow path's tail, shared by both layouts: read the verdict of a
   descriptor just helped through. *)
let succeeded b status =
  let ok = Atomic.get status = Succeeded in
  if ok then Opstats.incr_success b;
  ok

(* The flat descriptor over [loc_a] and [loc_b], which the caller
   orders by ascending id (the acquire order that bounds helping
   chains), helped through. *)
let dcas2 b loc_a loc_b before_a before_b after_a after_b =
  let d =
    {
      status = Atomic.make Undecided;
      owner = self_id ();
      loc_a;
      before_a;
      after_a;
      loc_b;
      before_b;
      after_b;
    }
  in
  help_dcas2 b d;
  succeeded b d.status

let dcas l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_lockfree.dcas: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  if n1 == o1 && n2 == o2 && confirmed l1 l2 o1 o2 then begin
    Opstats.incr_success b;
    true
  end
  else if doomed l1 o1 || doomed l2 o2 then begin
    Opstats.incr_fastfail b;
    false
  end
  else begin
    Opstats.incr_desc_alloc b;
    Opstats.incr_dcas2 b;
    if l1.id < l2.id then dcas2 b l1 l2 o1 o2 n1 n2
    else dcas2 b l2 l1 o2 o1 n2 n1
  end

(* The strong form obtains its failing atomic view with the same trick
   the paper's own algorithms use (Figure 2, lines 8-10): a successful
   no-op DCAS certifies that the two values were simultaneously
   present.  The loop is lock-free: every retry is caused by some other
   operation's successful DCAS.  Retries back off — the failure that
   sent us around the loop means the locations are contended right now,
   and re-colliding immediately mostly fails the other operations'
   DCASes too.  The backoff state is allocated only once a retry has
   failed, and success is a constant, so the success path allocates
   what [dcas] does. *)
let rec dcas_strong_retry l1 l2 o1 o2 n1 n2 b =
  let v1 = get l1 in
  let v2 = get l2 in
  if l1.equal v1 o1 && l2.equal v2 o2 then
    if dcas l1 l2 o1 o2 n1 n2 then Memory_intf.Swapped
    else dcas_strong_retry l1 l2 o1 o2 n1 n2 (Backoff.failed b)
  else if dcas l1 l2 v1 v2 v1 v2 then Memory_intf.Saw (v1, v2)
  else dcas_strong_retry l1 l2 o1 o2 n1 n2 (Backoff.failed b)

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if dcas l1 l2 o1 o2 n1 n2 then Memory_intf.Swapped
  else dcas_strong_retry l1 l2 o1 o2 n1 n2 Backoff.idle

(* Generic N-word CASN over the same locations: the natural
   generalization the paper's Section 6 alludes to when discussing
   "synchronization primitives that can access more than one shared
   memory location".  A two-entry CASN is a [dcas], so width 2 has
   one path; every other width (the 3-word CAS of [List_deque_casn])
   takes the [casn] layout. *)
let casn = function
  | [] -> true
  | [ Cass (l1, o1, n1); Cass (l2, o2, n2) ] ->
      if l1.id = l2.id then
        invalid_arg "Mem_lockfree.casn: locations must differ";
      dcas l1 l2 o1 o2 n1 n2
  | cs ->
      let entries =
        Array.of_list
          (List.map
             (fun (Cass (loc, before, after)) -> Entry { loc; before; after })
             cs)
      in
      let id (Entry { loc; _ }) = loc.id in
      Array.sort (fun e f -> compare (id e) (id f)) entries;
      for i = 1 to Array.length entries - 1 do
        if id entries.(i - 1) = id entries.(i) then
          invalid_arg "Mem_lockfree.casn: locations must differ"
      done;
      let b = Opstats.bucket counters in
      Opstats.incr_attempt b;
      (* Same pre-validation as [dcas]: any entry already stale dooms the
         whole CASN, and spotting it from a logical read skips the
         descriptor and the acquire cascade entirely. *)
      if Array.exists (fun (Entry { loc; before; _ }) -> doomed loc before) entries
      then begin
        Opstats.incr_fastfail b;
        false
      end
      else begin
        Opstats.incr_desc_alloc b;
        let status = Atomic.make Undecided in
        help_casn b (Casn { status; owner = self_id (); entries });
        succeeded b status
      end
