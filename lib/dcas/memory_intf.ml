(* The shared-memory model of Section 2 of the paper: a linearizable
   memory object offering Read, Write and DCAS (Figure 1).  Every deque
   algorithm in this repository is a functor over MEMORY, so the same
   algorithm text runs on a production lock-free substrate, on blocking
   emulations, and inside the model checker. *)

type stats = {
  reads : int;  (** number of [get] operations observed *)
  writes : int;  (** number of [set] operations observed *)
  dcas_attempts : int;  (** number of [dcas]/[dcas_strong]/[casn] invocations *)
  dcas_successes : int;  (** how many of those returned [true] *)
  dcas_fastfails : int;
      (** how many attempts were rejected by pre-validation — a read of
          the locations showed an expected-value mismatch, so the
          operation failed without taking its slow path (for
          [Mem_lockfree]: without allocating a descriptor).  Included
          in [dcas_attempts]; always 0 for substrates with no slow
          path to avoid. *)
  dcas2_hits : int;
      (** how many DCAS/2-entry-CASN slow paths took the specialized
          flat [Dcas2] descriptor instead of the generic entry-array
          CASN ({!Mem_lockfree}); always 0 for other substrates. *)
  descriptor_allocs : int;
      (** CASN descriptors allocated — attempts that survived
          pre-validation and took a slow path ({!Mem_lockfree}). *)
  value_allocs : int;
      (** fresh [Value] state blocks allocated by writes and descriptor
          releases ({!Mem_lockfree}).  Elided releases — the location's
          logical value was unchanged, so the original block is
          reinstalled — do not count. *)
  helped_orphans : int;
      (** descriptors published by a domain since marked dead
          ({!Mem_lockfree.mark_dead}) whose status was decided by a
          {e surviving} domain — the helping protocol completing a
          crashed thread's in-flight CASN (the fail-stop face of the
          paper's Theorems 3.1/4.1).  Each orphaned descriptor is
          counted exactly once, at the successful status CAS; always 0
          when no domain has been marked dead. *)
}

(* The Opstats bucket layout is the field order of the record above:
   [of_counts] builds the record from a flat count array, so a counter
   added to the record without extending it is a compile-time error. *)
let stats_fields = 9

let of_counts a =
  if Array.length a <> stats_fields then
    invalid_arg "Memory_intf.of_counts: wrong arity";
  {
    reads = a.(0);
    writes = a.(1);
    dcas_attempts = a.(2);
    dcas_successes = a.(3);
    dcas_fastfails = a.(4);
    dcas2_hits = a.(5);
    descriptor_allocs = a.(6);
    value_allocs = a.(7);
    helped_orphans = a.(8);
  }

let stats_to_assoc s =
  [
    ("reads", s.reads);
    ("writes", s.writes);
    ("dcas_attempts", s.dcas_attempts);
    ("dcas_successes", s.dcas_successes);
    ("dcas_fastfails", s.dcas_fastfails);
    ("dcas2_hits", s.dcas2_hits);
    ("descriptor_allocs", s.descriptor_allocs);
    ("value_allocs", s.value_allocs);
    ("helped_orphans", s.helped_orphans);
  ]

let empty_stats = of_counts (Array.make stats_fields 0)

let pp_stats ppf s =
  Format.fprintf ppf "reads=%d writes=%d dcas=%d/%d fastfail=%d" s.reads
    s.writes s.dcas_successes s.dcas_attempts s.dcas_fastfails;
  (* the allocation counters appear only on substrates that track
     them, so the other models' reports stay unchanged *)
  if s.dcas2_hits > 0 || s.descriptor_allocs > 0 || s.value_allocs > 0 then
    Format.fprintf ppf " alloc=dcas2:%d,desc:%d,value:%d" s.dcas2_hits
      s.descriptor_allocs s.value_allocs;
  (* the orphan counter appears only when crash injection marked a
     domain dead, so fault-free reports stay unchanged *)
  if s.helped_orphans > 0 then
    Format.fprintf ppf " orphans-helped=%d" s.helped_orphans

module type MEMORY = sig
  (** A linearizable shared memory providing the operations of Section 2:
      [Read], [Write] and the two forms of [DCAS] from Figure 1. *)

  type 'a loc
  (** A shared memory location holding a value of type ['a]. *)

  val make : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  (** [make ?equal v] allocates a fresh location initialized to [v].
      [equal] decides whether a location's current content matches the
      "old" value supplied to a DCAS; it defaults to structural equality
      [( = )].  Pass a custom [equal] whenever values may contain cycles
      (e.g. pointers into a doubly-linked structure). *)

  val make_padded : ?equal:('a -> 'a -> bool) -> 'a -> 'a loc
  (** Like {!make}, but the location is allocated so that it does not
      share a cache line with other locations (see {!Padding}).  Use
      for the handful of a structure's locations that stay hot for its
      whole lifetime — end indices, sentinel link words — where false
      sharing with a neighboring allocation would serialize logically
      disjoint operations.  Substrates to which placement is irrelevant
      (the model checker, the sequential model) may alias [make]. *)

  val get : 'a loc -> 'a
  (** [get l] is the paper's [Read(L)]: a linearizable read of [l]. *)

  val set : 'a loc -> 'a -> unit
  (** [set l v] is the paper's [Write(L, v)]: a linearizable,
      unconditional write. *)

  val set_private : 'a loc -> 'a -> unit
  (** [set_private l v] writes to a location that is not yet reachable
      by any other thread — initialization of a freshly allocated
      structure before it is published.  Semantically identical to
      {!set}; memory models may skip synchronization and the model
      checker does not treat it as a scheduling point, following the
      paper's footnote 7 ("we do not consider fields of a
      newly-allocated heap object to be shared variables until a
      pointer to the object has been stored in some shared
      variable"). *)

  val dcas : 'a loc -> 'b loc -> 'a -> 'b -> 'a -> 'b -> bool
  (** [dcas l1 l2 o1 o2 n1 n2] is the boolean form of Figure 1:
      atomically, if [l1] holds [o1] and [l2] holds [o2], store [n1] and
      [n2] and return [true]; otherwise leave memory unchanged and
      return [false].  The two locations must be distinct.

      @raise Invalid_argument if [l1] and [l2] are the same location. *)

  val dcas_strong : 'a loc -> 'b loc -> 'a -> 'b -> 'a -> 'b -> bool * 'a * 'b
  (** [dcas_strong l1 l2 o1 o2 n1 n2] is the atomic-view form of
      Figure 1 (third and fourth arguments are pointers to the old
      values in the paper's C rendition).  On success it behaves like
      {!dcas} and returns [(true, o1, o2)]; on failure it returns
      [(false, v1, v2)] where [(v1, v2)] is an {e atomic} snapshot of
      the two locations observed at some instant during the call, with
      [(v1, v2) <> (o1, o2)] under the locations' equalities. *)

  val name : string
  (** Short human-readable name of the memory model, used in benchmark
      tables and test labels. *)

  val stats : unit -> stats
  (** Cumulative operation counters for this memory model, summed over
      all domains that used it.  Intended for the ablation experiments
      (E10, E12); see {!reset_stats}. *)

  val reset_stats : unit -> unit
  (** Reset the counters returned by {!stats} to zero. *)
end

module type MEMORY_CASN = sig
  (** A memory model additionally offering an N-word compare-and-swap —
      the stronger primitive Section 6 of the paper asks about.  DCAS
      is the two-entry special case; the 3CAS deque extension
      ({!Deque.List_deque_casn}) is built on the three-entry case. *)

  include MEMORY

  type cass = Cass : 'a loc * 'a * 'a -> cass
  (** One entry: location, expected value, new value. *)

  val casn : cass list -> bool
  (** Atomically compare-and-swap every entry; succeeds iff all
      expected values match.  The empty list trivially succeeds.

      @raise Invalid_argument if two entries name the same location. *)
end
