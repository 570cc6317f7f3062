(* Per-domain operation counters.  Each domain that touches a memory
   model gets its own bucket of counters (registered in a global list),
   so the hot paths never contend on a shared counter; [snapshot] sums
   across domains.

   One writer per bucket: only the owning domain ever bumps its
   bucket's counters, so a bump is a plain load-add-store on an [int]
   array slot, not a locked read-modify-write, and no bump is ever
   lost.  Other domains read the slots unsynchronized.  OCaml 5 races
   on an [int] field are memory-safe and never tear, so a snapshot
   taken while domains count sums values each at most a few bumps
   stale; it is exact once the counting domains are joined, or stopped
   by a stop-the-world collection such as [Gc.minor ()].  A [reset]
   stores zeros from the calling domain, and an owner mid-bump may then
   write its old count plus one over the zero, so a reset is exact only
   at quiescence — which is where every caller resets.

   Finding the bucket is a domain-local-storage lookup, which costs
   more than the bump itself, so callers fetch it once per operation
   ([bucket]) and bump through it.

   The per-worker counters of Supervisor and Shard_service stay atomic:
   their monitor reads them while the workers run and decides liveness
   and write-offs from what it sees, so each read must be ordered
   against the worker's other state.  These counts are only summed
   after the fact.

   The bucket is one block, widened by two cache lines of unused slots
   on each side of the counters (see Padding): without it, the counters
   of different domains' buckets, or any other block the allocator
   places beside them, share cache lines, and "per-domain so the hot
   path doesn't contend" is defeated by coherence traffic on the line
   itself.  Two lines, because x86 cores prefetch lines in 128-byte
   pairs: on a 2-vCPU Xeon VM, one line per side left the repository
   benchmark's list-both-ends p90 no better than with atomic counters
   (a shoulder of slow requests), and two lines cut it by about 15%.
   [Padding.copy_as_padded] cannot do this job, because an array must
   never go through it (Array.length is derived from the block size). *)

type bucket = int array
(* counter indices, each stored at [pad + index]: 0 = reads,
   1 = writes, 2 = dcas attempts, 3 = dcas successes, 4 = dcas
   fast-fails, 5 = Dcas2 fast-path hits, 6 = descriptor allocations,
   7 = Value block allocations (5-7 used by Mem_lockfree), 8 = orphaned
   descriptors helped to completion by survivors (crash injection).
   The layout is the field order of Memory_intf.stats: snapshot
   converts through Memory_intf.of_counts, so the two can never drift
   apart silently. *)

let bucket_size = Memory_intf.stats_fields
let pad = 2 * Padding.cache_line_words

type t = {
  mutex : Mutex.t;
  mutable buckets : bucket list;
  key : bucket Domain.DLS.key;
}

let create () =
  let rec t =
    lazy
      {
        mutex = Mutex.create ();
        buckets = [];
        key =
          Domain.DLS.new_key (fun () ->
              let b = Array.make (pad + bucket_size + pad) 0 in
              let t = Lazy.force t in
              Mutex.lock t.mutex;
              t.buckets <- b :: t.buckets;
              Mutex.unlock t.mutex;
              b);
      }
  in
  Lazy.force t

let bucket t = Domain.DLS.get t.key

let incr b i =
  let i = pad + i in
  b.(i) <- b.(i) + 1

let incr_read b = incr b 0
let incr_write b = incr b 1
let incr_attempt b = incr b 2
let incr_success b = incr b 3
let incr_fastfail b = incr b 4
let incr_dcas2 b = incr b 5
let incr_desc_alloc b = incr b 6
let incr_value_alloc b = incr b 7
let incr_orphan b = incr b 8

let buckets t =
  Mutex.lock t.mutex;
  let buckets = t.buckets in
  Mutex.unlock t.mutex;
  buckets

let snapshot t : Memory_intf.stats =
  let buckets = buckets t in
  let sum i = List.fold_left (fun acc b -> acc + b.(pad + i)) 0 buckets in
  Memory_intf.of_counts (Array.init bucket_size sum)

let reset t = List.iter (fun b -> Array.fill b pad bucket_size 0) (buckets t)
