(* Per-domain operation counters.  Each domain that touches a memory
   model gets its own array of atomic counters (registered in a global
   list), so the hot paths never contend on a shared counter; [snapshot]
   sums across domains.

   Each counter cell is cache-line padded (see Padding): without it,
   the five counters of one domain's bucket — and worse, the counters
   of different domains allocated back to back — share cache lines,
   and "per-domain so the hot path doesn't contend" is defeated by
   coherence traffic on the line itself.  The bucket's spine array is
   NOT padded: an array must never go through [copy_as_padded]
   (Array.length is derived from the block size), and the spine is
   read-only after creation, so sharing its line is harmless. *)

type bucket = int Atomic.t array
(* indices: 0 = reads, 1 = writes, 2 = dcas attempts, 3 = dcas
   successes, 4 = dcas fast-fails, 5 = Dcas2 fast-path hits,
   6 = descriptor allocations, 7 = Value block allocations (5-7 used
   by Mem_lockfree), 8 = orphaned descriptors helped to completion by
   survivors (crash injection).
   The layout is the field order of Memory_intf.stats: snapshot
   converts through Memory_intf.of_counts, so the two can never drift
   apart silently. *)

let bucket_size = Memory_intf.stats_fields

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
              let b = Array.init bucket_size (fun _ -> Padding.make_atomic 0) in
              let t = Lazy.force t in
              Mutex.lock t.mutex;
              t.buckets <- b :: t.buckets;
              Mutex.unlock t.mutex;
              b);
      }
  in
  Lazy.force t

let bucket t = Domain.DLS.get t.key

let incr b i = Atomic.incr b.(i)
let incr_read t = incr (bucket t) 0
let incr_write t = incr (bucket t) 1
let incr_attempt t = incr (bucket t) 2
let incr_success t = incr (bucket t) 3
let incr_fastfail t = incr (bucket t) 4
let incr_dcas2 t = incr (bucket t) 5
let incr_desc_alloc t = incr (bucket t) 6
let incr_value_alloc t = incr (bucket t) 7
let incr_orphan t = incr (bucket t) 8

let snapshot t : Memory_intf.stats =
  Mutex.lock t.mutex;
  let buckets = t.buckets in
  Mutex.unlock t.mutex;
  let sum i = List.fold_left (fun acc b -> acc + Atomic.get b.(i)) 0 buckets in
  Memory_intf.of_counts (Array.init bucket_size sum)

let reset t =
  Mutex.lock t.mutex;
  let buckets = t.buckets in
  Mutex.unlock t.mutex;
  List.iter (fun b -> Array.iter (fun c -> Atomic.set c 0) b) buckets
