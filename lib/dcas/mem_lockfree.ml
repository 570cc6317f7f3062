(* Non-blocking software DCAS in the style the paper cites as "a
   non-blocking software emulation [8, 30]": a restricted multi-word
   compare-and-swap (CASN) built from single-word CAS with descriptors
   and helping, after Harris, Fraser and Pratt.

   Each location holds a [state]: either a plain [Value], or [Owned] by
   a CASN descriptor together with the location's value before and
   after that CASN.  The logical value of an [Owned] location is
   decided by the descriptor's status: [before] until the status word
   is CASed to [Succeeded] (which is the linearization point of the
   whole CASN), [after] from then on.  Any thread that encounters an
   undecided descriptor while installing its own helps it to completion
   first, so a stalled thread can never block others.

   Descriptors come in two layouts, chosen by width.  The flat [Dcas2]
   inlines both locations and values into one record — no entry
   blocks, no array, no per-index bounds checks — and serves every
   two-location CASN, which is every deque operation in the paper; the
   generic [Casn] carries an entry array and serves every other width.
   Both run one protocol by construction: [step] is the only code that
   acquires an entry (read the state, help or release a foreign
   descriptor, compare, install, publish), and each layout keeps only a
   driver that re-reads the status, sequences its entries and decides.

   Two properties of OCaml make the simple two-phase CASN (without the
   RDCSS sub-protocol of Harris et al.) correct here:

   - installation uses a physical compare-and-set against the exact
     state block read in the same attempt, and a state block stays
     current only while the location's logical value is unchanged:
     every logical change installs a fresh [Value] block.  A release
     that would write back the unchanged logical value may reinstall
     the original block (value elision, below); a stale helper whose
     physical CAS then succeeds has therefore validated a still-current
     logical value, and the decided descriptor it installs resolves to
     that same value, so the re-installation is harmless and is undone
     by the helper's own release phase; and

   - the garbage collector reclaims descriptors, exactly as the paper's
     deques rely on GC to reclaim list nodes (Section 1.1).

   The first argument fails for a [Succeeded] descriptor, and [step] is
   where: a driver reads [Undecided], the descriptor is then decided,
   released, and its location moved back to [before] by a fresh
   [Value]; [step]'s state read finds that block, [equal] accepts it,
   its install CAS succeeds, and the release then writes [after] back
   (ROADMAP.md, item 1).  The fix, an install conditional on the
   status, belongs in [step] alone.

   Entries are acquired in ascending location-id order, which bounds
   helping chains and yields lock-freedom by the standard argument.

   A DCAS whose new values are physically its expected ones writes
   nothing: it is the paper's empty/full confirmation (Figures 2/3
   lines 6-11, Figure 11 lines 8-12), and [dcas_strong]'s failing view.
   [dcas] answers it without a descriptor when three reads agree: [l1]
   holds a [Value] block [s1] whose value is [o1], [l2] resolves to
   [o2], and [l1] still holds [s1].  Success linearizes at [l2]'s read.
   The argument: a [Value] block returns to a location only through
   value elision, from the [Owned] block that displaced it.  That block
   reads as its [before], which its install matched against the
   displaced value, until its descriptor succeeds and it reads as
   [after]; elision reinstalls the displaced block only when the
   released value is that block's own.  Every other write, ROADMAP.md
   item 1's stale install included, puts a fresh block there.  So [l1]
   held [o1] (under its equality) for the whole window between the two
   reads of [s1].  The path installs nothing, so it neither fixes nor
   enters the stale-install sequence.  When the reads disagree — [l1]
   is [Owned], its block changed, a value differs — the call takes the
   pre-validation and descriptor path below, unchanged. *)

type status = Undecided | Failed | Succeeded

type 'a loc = {
  id : int;
  state : 'a state Atomic.t;
  equal : 'a -> 'a -> bool;
}

and 'a state =
  | Value of 'a
  | Owned of { desc : desc; before : 'a; after : 'a; orig : 'a state }
      (* [orig] is the [Value] block this acquisition displaced; release
         reinstalls it when the logical value comes out unchanged *)

and desc =
  | Dcas2 : {
      status : status Atomic.t;
      owner : int;  (* domain id of the operation's initiator *)
      loc_a : 'a loc;  (* invariant: loc_a.id < loc_b.id *)
      before_a : 'a;
      after_a : 'a;
      loc_b : 'b loc;
      before_b : 'b;
      after_b : 'b;
    }
      -> desc
  | Casn of { status : status Atomic.t; owner : int; entries : entry array }

and entry = Entry : { loc : 'a loc; before : 'a; after : 'a } -> entry

type cass = Cass : 'a loc * 'a * 'a -> cass

let name = "lockfree"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters

let status_of = function
  | Dcas2 { status; _ } -> status
  | Casn { status; _ } -> status

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
   domain.  A dying domain publishes at most one (it is killed at its
   first publish), so the registry is exactly the set of descriptors
   the paper's helping protocol must complete on the crashed domain's
   behalf; [help_orphans] lets a supervisor force that completion
   deterministically instead of waiting for a survivor to collide with
   the owned locations.  Reads alone never decide a descriptor
   ([resolve] consults the status without helping), so without this a
   quiescent orphan could stay undecided forever. *)
let orphan_registry = Atomic.make ([] : desc list)

let rec register_orphan d =
  let cur = Atomic.get orphan_registry in
  if List.memq d cur then ()
  else if not (Atomic.compare_and_set orphan_registry cur (d :: cur)) then
    register_orphan d

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

let owner_of = function
  | Dcas2 { owner; _ } -> owner
  | Casn { owner; _ } -> owner

(* The initiator just installed its own descriptor: give the crash
   layer its chance to kill the domain right here, mid-CASN.  Helpers
   installing someone else's descriptor never trigger the hook.  The
   owner is read back out of [desc] (rather than passed in) so the
   acquire functions take nothing beyond what the fault-free protocol
   already needs. *)
let published desc =
  if Atomic.get hook_armed then begin
    let owner = owner_of desc in
    if owner = self_id () then begin
      if Atomic.get dead_count > 0 && List.memq owner (Atomic.get dead_list)
      then register_orphan desc;
      (Atomic.get publish_hook) ()
    end
  end

(* A status CAS just decided [owner]'s descriptor; if the owner is a
   dead domain and we are not it, a survivor has completed a crashed
   thread's operation.  Status is monotonic, so this runs exactly once
   per descriptor. *)
let decided owner =
  if
    Atomic.get dead_count > 0
    && owner <> self_id ()
    && List.memq owner (Atomic.get dead_list)
  then Opstats.incr_orphan (Opstats.bucket counters)

let make ?(equal = ( = )) v =
  { id = Id.next (); state = Atomic.make (Value v); equal }

let make_padded ?(equal = ( = )) v =
  Padding.copy_as_padded
    { id = Id.next (); state = Padding.make_atomic (Value v); equal }

(* The logical value of a state block, given the owning descriptor's
   current status.  Status is monotonic (Undecided -> Failed/Succeeded,
   then frozen), so reading the state block and then its status yields a
   linearizable read: see DESIGN.md, lib/dcas notes.  On the common
   already-released [Value] case this allocates nothing. *)
let resolve : type a. a state -> a = function
  | Value v -> v
  | Owned { desc; before; after; _ } -> (
      match Atomic.get (status_of desc) with
      | Succeeded -> after
      | Undecided | Failed -> before)

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  resolve (Atomic.get loc.state)

(* Replace a decided descriptor's hold on [loc] with a plain [Value];
   failure means somebody else already moved the location on.  When the
   logical value comes out unchanged — the descriptor failed, or this
   was the unchanged entry of a DCAS that writes only its other
   location — the displaced original block is reinstalled instead of
   allocating a fresh one (value elision; exact for unboxed values like
   the deque indices, conservative otherwise via physical equality). *)
let release_one (type a) (loc : a loc) (cur : a state) =
  match cur with
  | Value _ -> ()
  | Owned { before; after; orig; desc } ->
      let v =
        match Atomic.get (status_of desc) with
        | Succeeded -> after
        | Undecided | Failed -> before
      in
      let replacement =
        match orig with
        | Value v0 when v0 == v -> orig
        | Value _ | Owned _ ->
            Opstats.incr_value_alloc (Opstats.bucket counters);
            Value v
      in
      ignore (Atomic.compare_and_set loc.state cur replacement)

(* Eagerly release [loc] if [desc] still owns it, so later operations
   on it take the fast [Value] path. *)
let release_own (type a) desc (loc : a loc) =
  match Atomic.get loc.state with
  | Owned { desc = d; _ } as cur when d == desc -> release_one loc cur
  | Value _ | Owned _ -> ()

(* What one acquire step found: the entry is held by the descriptor;
   the location must be read again (another descriptor held it and was
   helped or released, or the install CAS lost a race); or its value is
   not the expected one.  Constant constructors, so a step allocates
   only the [Owned] block it installs. *)
type verdict = Acquired | Retry | Mismatch

(* The per-entry protocol, the same for both layouts: read the state;
   help an undecided foreign descriptor or release a decided one; else
   compare with [equal] and install by CAS, and tell the crash layer
   when the initiator has published.  [help] comes in as an argument
   so that [step] stays outside the recursive group below and is
   inlined into each driver: called out of line, it made two-domain
   list-deque traffic about 10% slower at p50 and p90. *)
let[@inline] step :
    type a. (desc -> unit) -> desc -> a loc -> a -> a -> verdict =
 fun help desc loc before after ->
  let cur = Atomic.get loc.state in
  match cur with
  | Owned { desc = d; _ } when d == desc -> Acquired
  | Owned { desc = d; _ } ->
      if Atomic.get (status_of d) = Undecided then help d
      else release_one loc cur;
      Retry
  | Value v ->
      if not (loc.equal v before) then Mismatch
      else if
        Atomic.compare_and_set loc.state cur
          (Owned { desc; before; after; orig = cur })
      then begin
        published desc;
        Acquired
      end
      else Retry

(* Helping runs on every DCAS, so its loops are closed top-level
   functions that take all their state as arguments: a local recursive
   closure over the descriptor's fields would be allocated afresh on
   every call.  The drivers return true iff this call's CAS decided the
   status, so the orphan accounting ([decided]) runs after them and the
   fault-free path allocates only what the protocol needs: the
   descriptor, its [Owned] blocks and the released [Value]s. *)
let rec help desc =
  match desc with
  | Dcas2 { status; owner; loc_a; before_a; after_a; loc_b; before_b; after_b }
    ->
      if drive_dcas2 desc status false loc_a before_a after_a loc_b before_b
           after_b
      then decided owner;
      release_own desc loc_a;
      release_own desc loc_b
  | Casn { status; owner; entries } ->
      if drive_casn desc status entries 0 then decided owner;
      for i = 0 to Array.length entries - 1 do
        let (Entry { loc; _ }) = entries.(i) in
        release_own desc loc
      done

(* The [Dcas2] driver: entry a, then entry b ([on_b]), the status
   re-read before every step.  Its fields stay arguments, so helping a
   flat descriptor touches no entry block. *)
and drive_dcas2 :
    type a b.
    desc ->
    status Atomic.t ->
    bool ->
    a loc ->
    a ->
    a ->
    b loc ->
    b ->
    b ->
    bool =
 fun desc status on_b loc_a before_a after_a loc_b before_b after_b ->
  Atomic.get status = Undecided
  &&
  match
    if on_b then step help desc loc_b before_b after_b
    else step help desc loc_a before_a after_a
  with
  | Acquired when on_b -> Atomic.compare_and_set status Undecided Succeeded
  | Acquired ->
      drive_dcas2 desc status true loc_a before_a after_a loc_b before_b
        after_b
  | Retry ->
      drive_dcas2 desc status on_b loc_a before_a after_a loc_b before_b
        after_b
  | Mismatch -> Atomic.compare_and_set status Undecided Failed

(* The [Casn] driver: entries [i] on, in order. *)
and drive_casn desc status entries i =
  if i >= Array.length entries then
    Atomic.compare_and_set status Undecided Succeeded
  else
    Atomic.get status = Undecided
    &&
    let (Entry { loc; before; after }) = entries.(i) in
    match step help desc loc before after with
    | Acquired -> drive_casn desc status entries (i + 1)
    | Retry -> drive_casn desc status entries i
    | Mismatch -> Atomic.compare_and_set status Undecided Failed

(* Complete every orphaned descriptor on the crashed owners' behalf:
   the survivors' side of Theorems 3.1/4.1 made into an API.  Helping
   an already-decided descriptor is a no-op (the drivers exit on a
   decided status), so calling this after organic helping has
   already completed some orphans is safe and counts nothing twice —
   [helped_orphans] ticks only at the single successful status CAS. *)
let help_orphans () =
  let ds = Atomic.get orphan_registry in
  List.iter help ds;
  List.length ds

let rec set loc v =
  let b = Opstats.bucket counters in
  Opstats.incr_write b;
  let cur = Atomic.get loc.state in
  (match cur with
  | Owned { desc; _ } when Atomic.get (status_of desc) = Undecided -> help desc
  | Value _ | Owned _ -> ());
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
   read-for-ownership storm.  Mismatch against an [Owned] state needs
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
  | Owned _ -> false

(* Build the flat two-location descriptor, normalizing to ascending
   location-id order (the acquire order that bounds helping chains). *)
let make_dcas2 l1 l2 o1 o2 n1 n2 =
  let owner = self_id () in
  if l1.id < l2.id then
    Dcas2
      {
        status = Atomic.make Undecided;
        owner;
        loc_a = l1;
        before_a = o1;
        after_a = n1;
        loc_b = l2;
        before_b = o2;
        after_b = n2;
      }
  else
    Dcas2
      {
        status = Atomic.make Undecided;
        owner;
        loc_a = l2;
        before_a = o2;
        after_a = n2;
        loc_b = l1;
        before_b = o1;
        after_b = n1;
      }

(* The slow path's tail, shared by both layouts: help the fresh
   descriptor through, then read its verdict. *)
let complete b desc =
  help desc;
  let ok = Atomic.get (status_of desc) = Succeeded in
  if ok then Opstats.incr_success b;
  ok

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
    complete b (make_dcas2 l1 l2 o1 o2 n1 n2)
  end

(* The strong form obtains its failing atomic view with the same trick
   the paper's own algorithms use (Figure 2, lines 8-10): a successful
   no-op DCAS certifies that the two values were simultaneously
   present.  The loop is lock-free: every retry is caused by some other
   operation's successful DCAS.  Retries back off — the failure that
   sent us around the loop means the locations are contended right now,
   and re-colliding immediately mostly fails the other operations'
   DCASes too.  The backoff state is allocated only once a retry has
   failed, keeping the success path allocation-equal to [dcas]. *)
let rec dcas_strong_retry l1 l2 o1 o2 n1 n2 b =
  let v1 = get l1 in
  let v2 = get l2 in
  if l1.equal v1 o1 && l2.equal v2 o2 then
    if dcas l1 l2 o1 o2 n1 n2 then (true, o1, o2)
    else dcas_strong_retry l1 l2 o1 o2 n1 n2 (Backoff.failed b)
  else if dcas l1 l2 v1 v2 v1 v2 then (false, v1, v2)
  else dcas_strong_retry l1 l2 o1 o2 n1 n2 (Backoff.failed b)

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if dcas l1 l2 o1 o2 n1 n2 then (true, o1, o2)
  else dcas_strong_retry l1 l2 o1 o2 n1 n2 Backoff.idle

(* Generic N-word CASN over the same locations: the natural
   generalization the paper's Section 6 alludes to when discussing
   "synchronization primitives that can access more than one shared
   memory location".  A two-entry CASN is a [dcas], so width 2 has
   one path; every other width (the 3-word CAS of [List_deque_casn])
   takes the [Casn] layout. *)
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
        complete b
          (Casn { status = Atomic.make Undecided; owner = self_id (); entries })
      end
