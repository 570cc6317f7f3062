(* Tests for the DCAS memory models: Figure 1 semantics sequentially on
   every model, and atomicity under real concurrency — the pair-ness of
   DCAS is exactly what a broken emulation loses first, so the
   concurrent tests revolve around invariants that relate the two
   locations of each DCAS. *)

module type MEM = Dcas.Memory_intf.MEMORY

let models : (module MEM) list =
  [
    (module Dcas.Mem_lockfree);
    (module Dcas.Mem_lock);
    (module Dcas.Mem_striped);
    (module Dcas.Mem_seq);
  ]

let concurrent_models : (module MEM) list =
  [ (module Dcas.Mem_lockfree); (module Dcas.Mem_lock); (module Dcas.Mem_striped) ]

(* --- Sequential Figure 1 semantics --- *)

let seq_tests (module M : MEM) =
  let name tag = M.name ^ ": " ^ tag in
  [
    Alcotest.test_case (name "get/set roundtrip") `Quick (fun () ->
        let l = M.make 1 in
        Alcotest.(check int) "initial" 1 (M.get l);
        M.set l 42;
        Alcotest.(check int) "after set" 42 (M.get l);
        M.set_private l 7;
        Alcotest.(check int) "after set_private" 7 (M.get l));
    Alcotest.test_case (name "dcas success updates both") `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 in
        Alcotest.(check bool) "succeeds" true (M.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (M.get a);
        Alcotest.(check int) "b" 20 (M.get b));
    Alcotest.test_case (name "dcas failure updates neither") `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 in
        Alcotest.(check bool) "first mismatch" false (M.dcas a b 9 2 10 20);
        Alcotest.(check bool) "second mismatch" false (M.dcas a b 1 9 10 20);
        Alcotest.(check bool) "both mismatch" false (M.dcas a b 9 9 10 20);
        Alcotest.(check int) "a unchanged" 1 (M.get a);
        Alcotest.(check int) "b unchanged" 2 (M.get b));
    Alcotest.test_case (name "dcas across types") `Quick (fun () ->
        let a = M.make 5 and b = M.make "x" in
        Alcotest.(check bool) "succeeds" true (M.dcas a b 5 "x" 6 "y");
        Alcotest.(check int) "a" 6 (M.get a);
        Alcotest.(check string) "b" "y" (M.get b));
    Alcotest.test_case (name "same location rejected") `Quick (fun () ->
        let a = M.make 1 in
        match M.dcas a a 1 1 2 2 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case (name "strong form returns view on failure") `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 in
        (match M.dcas_strong a b 5 5 0 0 with
        | Saw (v1, v2) ->
            Alcotest.(check int) "saw a" 1 v1;
            Alcotest.(check int) "saw b" 2 v2
        | Swapped -> Alcotest.fail "a mismatch succeeded");
        (match M.dcas_strong a b 1 2 10 20 with
        | Swapped -> ()
        | Saw _ -> Alcotest.fail "a match failed");
        Alcotest.(check int) "new a" 10 (M.get a);
        Alcotest.(check int) "new b" 20 (M.get b));
    Alcotest.test_case (name "custom equality") `Quick (fun () ->
        (* physical-equality cells: structurally equal but physically
           distinct expected values must NOT match *)
        let x = ref 1 in
        let l = M.make ~equal:( == ) x in
        let other = M.make 0 in
        Alcotest.(check bool) "match on same block" true
          (M.dcas l other x 0 x 1);
        let x' = ref 1 in
        Alcotest.(check bool) "no match on copy" false (M.dcas l other x' 1 x' 2));
    Alcotest.test_case (name "stats count dcas") `Quick (fun () ->
        M.reset_stats ();
        let a = M.make 1 and b = M.make 2 in
        ignore (M.dcas a b 1 2 3 4);
        ignore (M.dcas a b 1 2 3 4);
        let s = M.stats () in
        Alcotest.(check bool) "attempts >= 2" true (s.dcas_attempts >= 2);
        Alcotest.(check bool) "successes >= 1" true (s.dcas_successes >= 1);
        Alcotest.(check bool) "failures happened" true
          (s.dcas_attempts > s.dcas_successes));
    Alcotest.test_case (name "padded locations behave identically") `Quick
      (fun () ->
        let a = M.make_padded 1 and b = M.make_padded 2 in
        Alcotest.(check bool) "dcas" true (M.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (M.get a);
        Alcotest.(check int) "b" 20 (M.get b);
        M.set a 5;
        Alcotest.(check int) "set" 5 (M.get a);
        let x = ref 1 in
        let l = M.make_padded ~equal:( == ) x in
        let o = M.make_padded 0 in
        Alcotest.(check bool) "custom equality respected" true
          (M.dcas l o x 0 x 1);
        let x' = ref 1 in
        Alcotest.(check bool) "copy rejected" false (M.dcas l o x' 1 x' 2));
  ]

(* --- Concurrency: conservation under transfer --- *)

(* Threads move credits between two accounts with DCAS; the total is
   conserved iff each DCAS is atomic. *)
let transfer_test (module M : MEM) () =
  let a = M.make 1000 and b = M.make 1000 in
  let iters = 20_000 in
  let worker seed () =
    let rng = Dcas.Splitmix.create ~seed in
    for _ = 1 to iters do
      let amount = 1 + Dcas.Splitmix.int rng ~bound:5 in
      let flip = Dcas.Splitmix.bool rng in
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        let ok =
          if flip then M.dcas a b va vb (va - amount) (vb + amount)
          else M.dcas a b va vb (va + amount) (vb - amount)
        in
        if not ok then attempt ()
      in
      attempt ()
    done
  in
  let ds = List.init 4 (fun i -> Domain.spawn (worker (i * 7 + 1))) in
  List.iter Domain.join ds;
  Alcotest.(check int) "total conserved" 2000 (M.get a + M.get b)

(* Writers keep the two locations equal with paired DCAS increments;
   concurrent snapshots (the strong form's failing view and the no-op
   DCAS) must never observe them unequal. *)
let snapshot_test (module M : MEM) () =
  let a = M.make 0 and b = M.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    while not (Atomic.get stop) do
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        if not (M.dcas a b va vb (va + 1) (vb + 1)) then attempt ()
      in
      attempt ()
    done
  in
  let reader () =
    for _ = 1 to 20_000 do
      (* a no-op DCAS that succeeds certifies an atomic view *)
      let rec snap () =
        let va = M.get a and vb = M.get b in
        if M.dcas a b va vb va vb then (va, vb) else snap ()
      in
      let va, vb = snap () in
      if va <> vb then Atomic.incr violations
    done
  in
  let w1 = Domain.spawn writer and w2 = Domain.spawn writer in
  let r = Domain.spawn reader in
  Domain.join r;
  Atomic.set stop true;
  Domain.join w1;
  Domain.join w2;
  Alcotest.(check int) "no unequal snapshots" 0 (Atomic.get violations);
  Alcotest.(check int) "locations still equal" (M.get a) (M.get b)

(* strong-form views taken under contention are atomic pairs *)
let strong_view_test (module M : MEM) () =
  let a = M.make 0 and b = M.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    while not (Atomic.get stop) do
      let rec attempt () =
        let va = M.get a and vb = M.get b in
        if not (M.dcas a b va vb (va + 1) (vb + 1)) then attempt ()
      in
      attempt ()
    done
  in
  let reader () =
    for _ = 1 to 10_000 do
      (* expected values never match (negative), so this always fails
         and must return an atomic view *)
      match M.dcas_strong a b (-1) (-1) 0 0 with
      | Saw (va, vb) -> if va <> vb then Atomic.incr violations
      | Swapped -> Atomic.incr violations
    done
  in
  let w = Domain.spawn writer in
  let r = Domain.spawn reader in
  Domain.join r;
  Atomic.set stop true;
  Domain.join w;
  Alcotest.(check int) "atomic failing views" 0 (Atomic.get violations)

(* slow tier: multi-domain cases SKIP unless DCAS_SLOW_TESTS=1 *)
let concurrent_tests (module M : MEM) =
  [
    Test_support.tiered
      (M.name ^ ": transfer conservation")
      `Slow
      (transfer_test (module M));
    Test_support.tiered (M.name ^ ": snapshot equality") `Slow
      (snapshot_test (module M));
    Test_support.tiered
      (M.name ^ ": strong failing view")
      `Slow
      (strong_view_test (module M));
  ]

(* --- CASN (lock-free model only) --- *)

let words_per_call = Test_support.words_per_call

(* One uncontended DCAS on [a] and [b] that writes both. *)
let write a b () =
  let module M = Dcas.Mem_lockfree in
  let va = M.get a and vb = M.get b in
  if not (M.dcas a b va vb (va + 1) (vb + 1)) then
    Alcotest.fail "uncontended write failed"

let casn_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "casn: 3-way swap" `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        let ok = M.casn [ M.Cass (a, 1, 10); M.Cass (b, 2, 20); M.Cass (c, 3, 30) ] in
        Alcotest.(check bool) "succeeds" true ok;
        Alcotest.(check (list int)) "values" [ 10; 20; 30 ]
          [ M.get a; M.get b; M.get c ]);
    Alcotest.test_case "casn: partial mismatch changes nothing" `Quick (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        let ok = M.casn [ M.Cass (a, 1, 10); M.Cass (b, 99, 20); M.Cass (c, 3, 30) ] in
        Alcotest.(check bool) "fails" false ok;
        Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ]
          [ M.get a; M.get b; M.get c ]);
    Alcotest.test_case "casn: empty succeeds" `Quick (fun () ->
        Alcotest.(check bool) "trivial" true (M.casn []));
    Alcotest.test_case "casn: duplicate locations rejected" `Quick (fun () ->
        let a = M.make 1 in
        match M.casn [ M.Cass (a, 1, 2); M.Cass (a, 1, 3) ] with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "casn: concurrent conservation" `Quick (fun () ->
        (* four counters, transfers by a dcas, a two-entry casn (both
           the flat layout) or a three-entry casn (the generic one), so
           helpers of each layout meet the other layout's descriptors;
           a short run in the fast tier, the full one in the slow *)
        let iters = if Test_support.slow_enabled then 10_000 else 1_000 in
        let locs = Array.init 4 (fun _ -> M.make 100) in
        M.reset_stats ();
        let worker seed () =
          let rng = Dcas.Splitmix.create ~seed in
          for _ = 1 to iters do
            let i = Dcas.Splitmix.int rng ~bound:4 in
            let j = (i + 1 + Dcas.Splitmix.int rng ~bound:3) mod 4 in
            let rec other k =
              if k = i || k = j then other ((k + 1) mod 4) else k
            in
            let k = other (Dcas.Splitmix.int rng ~bound:4) in
            let li = locs.(i) and lj = locs.(j) and lk = locs.(k) in
            let kind = Dcas.Splitmix.int rng ~bound:3 in
            let rec attempt () =
              let vi = M.get li and vj = M.get lj and vk = M.get lk in
              let ok =
                match kind with
                | 0 -> M.dcas li lj vi vj (vi - 1) (vj + 1)
                | 1 ->
                    M.casn [ M.Cass (li, vi, vi - 1); M.Cass (lj, vj, vj + 1) ]
                | _ ->
                    M.casn
                      [
                        M.Cass (li, vi, vi - 2);
                        M.Cass (lj, vj, vj + 1);
                        M.Cass (lk, vk, vk + 1);
                      ]
              in
              if not ok then attempt ()
            in
            attempt ()
          done
        in
        let ds = List.init 4 (fun i -> Domain.spawn (worker (i + 11))) in
        List.iter Domain.join ds;
        let total = Array.fold_left (fun acc l -> acc + M.get l) 0 locs in
        Alcotest.(check int) "conserved" 400 total;
        let s = M.stats () in
        Alcotest.(check bool) "flat descriptors built" true (s.dcas2_hits > 0);
        Alcotest.(check bool) "generic descriptors built" true
          (s.descriptor_allocs > s.dcas2_hits));
    Alcotest.test_case "casn: two entries cost what dcas costs" `Quick
      (fun () ->
        (* a two-entry casn is a dcas: the same counts on every shape —
           writing, no-op, stale — and the same words plus its argument
           list, two [Cass] blocks (4 words each) and two cons cells (3
           each) *)
        let counts f =
          let a = M.make 1 and b = M.make 2 in
          M.reset_stats ();
          ignore (f a b 1 2 10 20);
          ignore (f a b 10 20 10 20);
          ignore (f a b 1 2 3 4);
          M.stats ()
        in
        let via_casn a b o1 o2 n1 n2 =
          M.casn [ M.Cass (a, o1, n1); M.Cass (b, o2, n2) ]
        in
        let d = counts M.dcas and c = counts via_casn in
        Alcotest.(check int) "one descriptor, for the write" 1
          c.descriptor_allocs;
        Alcotest.(check int) "one dcas2 hit, for the write" 1 c.dcas2_hits;
        Alcotest.(check int) "attempts" d.dcas_attempts c.dcas_attempts;
        Alcotest.(check int) "successes" d.dcas_successes c.dcas_successes;
        Alcotest.(check int) "fast-fails" d.dcas_fastfails c.dcas_fastfails;
        Alcotest.(check int) "descriptors" d.descriptor_allocs
          c.descriptor_allocs;
        Alcotest.(check int) "dcas2 hits" d.dcas2_hits c.dcas2_hits;
        Alcotest.(check int) "value blocks" d.value_allocs c.value_allocs;
        let w_dcas = words_per_call (write (M.make 0) (M.make 0)) in
        let w_casn =
          let a = M.make 0 and b = M.make 0 in
          words_per_call (fun () ->
              let va = M.get a and vb = M.get b in
              ignore
                (M.casn [ M.Cass (a, va, va + 1); M.Cass (b, vb, vb + 1) ]))
        in
        Alcotest.(check (float 0.))
          (Printf.sprintf "casn %.1f = dcas %.1f + 14 words" w_casn w_dcas)
          (w_dcas +. 14.) w_casn);
  ]

(* --- qcheck: casn against its sequential semantics --- *)

(* A random batch of (index, expected, new) entries over 5 locations,
   applied via casn and via a reference fold: outcome and final state
   must agree. *)
let casn_matches_reference =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (return 5) (int_bound 9))
        (list_size (1 -- 5)
           (triple (int_bound 4) (int_bound 9) (int_bound 9))))
  in
  let print (init, entries) =
    Printf.sprintf "init=[%s] entries=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int init)))
      (String.concat ";"
         (List.map (fun (i, o, n) -> Printf.sprintf "(%d,%d,%d)" i o n) entries))
  in
  QCheck2.Test.make ~name:"casn agrees with sequential reference" ~count:500
    ~print gen (fun (init, entries) ->
      let module M = Dcas.Mem_lockfree in
      (* drop duplicate indices: casn rejects them by contract *)
      let entries =
        List.fold_left
          (fun acc ((i, _, _) as e) ->
            if List.exists (fun (j, _, _) -> j = i) acc then acc else e :: acc)
          [] entries
        |> List.rev
      in
      let locs = Array.map (fun v -> M.make v) init in
      let reference = Array.copy init in
      let expect_ok =
        List.for_all (fun (i, o, _) -> reference.(i) = o) entries
      in
      if expect_ok then
        List.iter (fun (i, _, n) -> reference.(i) <- n) entries;
      let ok = M.casn (List.map (fun (i, o, n) -> M.Cass (locs.(i), o, n)) entries) in
      ok = expect_ok
      && Array.for_all2 (fun l v -> M.get l = v) locs reference)

(* --- the pre-validation fast path (Mem_lockfree) --- *)

(* A DCAS whose expected values are already stale must fail from two
   plain reads: no descriptor allocated, no ownership block ever
   installed, the locations untouched.  These tests pin each piece of
   that contract. *)
let fastpath_tests =
  let module M = Dcas.Mem_lockfree in
  [
    Alcotest.test_case "fast-fail: counted exactly" `Quick (fun () ->
        let a = M.make 0 and b = M.make 0 in
        M.reset_stats ();
        ignore (M.dcas a b 1 1 2 2);
        let s = M.stats () in
        Alcotest.(check int) "one attempt" 1 s.dcas_attempts;
        Alcotest.(check int) "one fast-fail" 1 s.dcas_fastfails;
        Alcotest.(check int) "no success" 0 s.dcas_successes;
        (* second-location staleness takes the same early exit *)
        ignore (M.dcas a b 0 1 2 2);
        Alcotest.(check int) "two fast-fails" 2 (M.stats ()).dcas_fastfails);
    Alcotest.test_case "fast-fail: allocation-free" `Quick (fun () ->
        let a = M.make 0 and b = M.make 0 in
        (* warm-up: first call initializes this domain's stats bucket *)
        ignore (M.dcas a b 1 1 2 2);
        (* [Gc.minor_words] itself boxes its float result, so a single
           delta cannot be zero; instead the delta must not grow with
           the iteration count, which proves the per-call cost is 0. *)
        let delta n =
          let before = Gc.minor_words () in
          for _ = 1 to n do
            ignore (M.dcas a b 1 1 2 2)
          done;
          Gc.minor_words () -. before
        in
        let d_small = delta 10 in
        let d_large = delta 10_000 in
        Alcotest.(check (float 0.)) "delta independent of iterations" d_small
          d_large);
    Alcotest.test_case "fast-fail: leaves no residue" `Quick (fun () ->
        let a = M.make 10 and b = M.make 20 in
        for _ = 1 to 100 do
          ignore (M.dcas a b 99 99 0 0)
        done;
        Alcotest.(check int) "a unchanged" 10 (M.get a);
        Alcotest.(check int) "b unchanged" 20 (M.get b);
        (* no ownership block left behind: a correct strong DCAS must
           still succeed and write both plain values *)
        Alcotest.(check bool) "clean success afterwards" true
          (M.dcas_strong a b 10 20 11 21 = Swapped);
        Alcotest.(check int) "wrote a" 11 (M.get a);
        Alcotest.(check int) "wrote b" 21 (M.get b));
    Alcotest.test_case "no-op: confirmed without a descriptor" `Quick
      (fun () ->
        (* the empty/full confirmation shape: every new value is its
           expected one, so three reads answer it — one attempt, one
           success, nothing allocated per call *)
        let a = M.make 7 and b = M.make 8 in
        M.reset_stats ();
        Alcotest.(check bool) "confirms" true (M.dcas a b 7 8 7 8);
        let s = M.stats () in
        Alcotest.(check int) "one attempt" 1 s.dcas_attempts;
        Alcotest.(check int) "one success" 1 s.dcas_successes;
        Alcotest.(check int) "no fast-fail" 0 s.dcas_fastfails;
        Alcotest.(check int) "no descriptor" 0 s.descriptor_allocs;
        Alcotest.(check int) "no dcas2 hit" 0 s.dcas2_hits;
        Alcotest.(check int) "no value block" 0 s.value_allocs;
        Alcotest.(check bool) "a mismatch still fails" false
          (M.dcas a b 7 9 7 9);
        let delta n =
          let before = Gc.minor_words () in
          for _ = 1 to n do
            ignore (M.dcas a b 7 8 7 8)
          done;
          Gc.minor_words () -. before
        in
        let d_small = delta 10 in
        let d_large = delta 10_000 in
        Alcotest.(check (float 0.)) "delta independent of iterations" d_small
          d_large);
    Alcotest.test_case "no-op: never confirms a torn pair" `Quick (fun () ->
        (* A writer advances (a, b) in lockstep, so a = b at every
           instant, while a reader asks whether a = x and b = x + 1.
           The read-only path reads [a], then [b], then [a] again; a
           writer DCAS landing between the first two reads shows [b]
           already advanced beside the [a] read before it, and only the
           re-read of [a] refuses that pair.  [b] is made first so the
           writer acquires [a] last, which keeps the writer's window
           short and the race frequent. *)
        let b = M.make 0 in
        let a = M.make 0 in
        let stop = Atomic.make false in
        let writer =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                let va = M.get a and vb = M.get b in
                ignore (M.dcas a b va vb (va + 1) (vb + 1))
              done)
        in
        let torn = ref 0 in
        let t_end = Unix.gettimeofday () +. 0.3 in
        while Unix.gettimeofday () < t_end do
          for _ = 1 to 1_000 do
            let x = M.get a in
            if M.dcas a b x (x + 1) x (x + 1) then incr torn
          done
        done;
        Atomic.set stop true;
        Domain.join writer;
        Alcotest.(check int) "no torn confirmation" 0 !torn;
        Alcotest.(check int) "still in lockstep" (M.get a) (M.get b));
    Alcotest.test_case "casn: stale entry fast-fails without mutation" `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        M.reset_stats ();
        let ok =
          M.casn [ M.Cass (a, 1, 10); M.Cass (b, 99, 20); M.Cass (c, 3, 30) ]
        in
        Alcotest.(check bool) "fails" false ok;
        let s = M.stats () in
        Alcotest.(check int) "fast-failed" 1 s.dcas_fastfails;
        Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ]
          [ M.get a; M.get b; M.get c ]);
  ]

(* qcheck: a doomed DCAS on the lock-free model must be observationally
   identical to one on the sequential reference — same verdict, same
   final values, at every step of a random operation sequence. *)
let fastfail_matches_reference =
  let gen =
    QCheck2.Gen.(
      let pair5 = pair (int_bound 4) (int_bound 4) in
      pair pair5
        (list_size (1 -- 20)
           (frequency
              [
                (2, pair pair5 pair5);
                (* no-op: the read-only confirmation path *)
                (1, map (fun o -> (o, o)) pair5);
              ])))
  in
  let print ((i1, i2), ops) =
    Printf.sprintf "init=(%d,%d) ops=[%s]" i1 i2
      (String.concat ";"
         (List.map
            (fun ((o1, o2), (n1, n2)) ->
              Printf.sprintf "(%d,%d)->(%d,%d)" o1 o2 n1 n2)
            ops))
  in
  QCheck2.Test.make
    ~name:"dcas (incl. fast-fail) agrees with sequential reference" ~count:500
    ~print gen (fun ((i1, i2), ops) ->
      let module L = Dcas.Mem_lockfree in
      let module S = Dcas.Mem_seq in
      let la = L.make i1 and lb = L.make i2 in
      let sa = S.make i1 and sb = S.make i2 in
      List.for_all
        (fun ((o1, o2), (n1, n2)) ->
          let lr = L.dcas la lb o1 o2 n1 n2 in
          let sr = S.dcas sa sb o1 o2 n1 n2 in
          lr = sr && L.get la = S.get sa && L.get lb = S.get sb)
        ops)

(* qcheck: Mem_striped agrees with Mem_seq on arbitrary single-threaded
   op sequences (set / dcas over five locations).  The striped model's
   only behavioral risk is lock-ordering over the hashed stripes, so
   the generator biases toward dcas pairs that collide and retries in
   both orders. *)
let striped_matches_seq =
  let gen =
    QCheck2.Gen.(
      pair
        (array_size (return 5) (int_bound 9))
        (list_size (1 -- 40)
           (frequency
              [
                (1, map2 (fun i v -> `Set (i, v)) (int_bound 4) (int_bound 9));
                ( 4,
                  map2
                    (fun ((i, dj), (o1, o2)) (n1, n2) ->
                      `Dcas (i, (i + 1 + dj) mod 5, o1, o2, n1, n2))
                    (pair
                       (pair (int_bound 4) (int_bound 3))
                       (pair (int_bound 9) (int_bound 9)))
                    (pair (int_bound 9) (int_bound 9)) );
              ])))
  in
  let print (init, ops) =
    Printf.sprintf "init=[%s] ops=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int init)))
      (String.concat ";"
         (List.map
            (function
              | `Set (i, v) -> Printf.sprintf "set(%d,%d)" i v
              | `Dcas (i, j, o1, o2, n1, n2) ->
                  Printf.sprintf "dcas(%d,%d:%d,%d->%d,%d)" i j o1 o2 n1 n2)
            ops))
  in
  QCheck2.Test.make
    ~name:"striped model agrees with sequential reference" ~count:500 ~print
    gen (fun (init, ops) ->
      let module T = Dcas.Mem_striped in
      let module S = Dcas.Mem_seq in
      let ts = Array.map (fun v -> T.make v) init in
      let ss = Array.map (fun v -> S.make v) init in
      let agree () =
        Array.for_all2 (fun t s -> T.get t = S.get s) ts ss
      in
      List.for_all
        (fun op ->
          (match op with
          | `Set (i, v) ->
              T.set ts.(i) v;
              S.set ss.(i) v;
              true
          | `Dcas (i, j, o1, o2, n1, n2) ->
              let tr = T.dcas ts.(i) ts.(j) o1 o2 n1 n2 in
              let sr = S.dcas ss.(i) ss.(j) o1 o2 n1 n2 in
              let tv = T.dcas_strong ts.(i) ts.(j) o1 o2 n1 n2 in
              let sv = S.dcas_strong ss.(i) ss.(j) o1 o2 n1 n2 in
              tr = sr && tv = sv)
          && agree ())
        ops)

(* --- the flat two-location descriptor (dcas2) --- *)

let dcas2_tests =
  let module M = Dcas.Mem_lockfree in
  (* a DCAS that writes [b] and leaves [a] as it was *)
  let half a b () =
    let va = M.get a and vb = M.get b in
    if not (M.dcas a b va vb va (vb + 1)) then
      Alcotest.fail "uncontended half failed"
  in
  [
    Alcotest.test_case "dcas2: hits counted on the two-location path" `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 in
        M.reset_stats ();
        Alcotest.(check bool) "succeeds" true (M.dcas a b 1 2 10 20);
        let s = M.stats () in
        Alcotest.(check int) "one dcas2 hit" 1 s.dcas2_hits;
        Alcotest.(check int) "one descriptor" 1 s.descriptor_allocs);
    Alcotest.test_case "dcas2: 2-entry casn takes the specialized path" `Quick
      (fun () ->
        let a = M.make 1 and b = M.make 2 and c = M.make 3 in
        M.reset_stats ();
        Alcotest.(check bool) "2-entry succeeds" true
          (M.casn [ M.Cass (b, 2, 20); M.Cass (a, 1, 10) ]);
        Alcotest.(check int) "flat" 1 (M.stats ()).dcas2_hits;
        Alcotest.(check bool) "3-entry succeeds" true
          (M.casn [ M.Cass (a, 10, 11); M.Cass (b, 20, 21); M.Cass (c, 3, 30) ]);
        Alcotest.(check int) "3-entry stays generic" 1 (M.stats ()).dcas2_hits;
        Alcotest.(check int) "two descriptors" 2 (M.stats ()).descriptor_allocs);
    Alcotest.test_case "dcas2: every release installs a fresh block" `Quick
      (fun () ->
        (* a DCAS that leaves [a]'s value as it was still releases [a]
           to a new Value block, never to the one its install displaced,
           so the half shape counts what a write does *)
        let a = M.make 7 and b = M.make 0 in
        M.reset_stats ();
        for _ = 1 to 50 do
          half a b ()
        done;
        let s = M.stats () in
        Alcotest.(check int) "one descriptor per op" 50 s.descriptor_allocs;
        Alcotest.(check int) "two value blocks per op" 100 s.value_allocs);
    Alcotest.test_case "dcas2: a half dcas costs what a write costs" `Quick
      (fun () ->
        (* with no value elision the unchanged entry's release is a full
           one, so a half op allocates exactly the words of a write *)
        let w_write = words_per_call (write (M.make 0) (M.make 0)) in
        let w_half = words_per_call (half (M.make 7) (M.make 0)) in
        Alcotest.(check (float 0.))
          (Printf.sprintf "half %.1f = write %.1f minor words" w_half w_write)
          w_write w_half);
    Alcotest.test_case "dcas2: allocation budget of a successful dcas" `Quick
      (fun () ->
        (* the protocol's own blocks only: the descriptor with its status
           word (11 words), two 2-word ownership blocks [A d] and [B d]
           (4) and two released [Value] blocks (4).  Helping must add
           nothing — no closure, no backoff. *)
        let per_call = words_per_call (write (M.make 0) (M.make 0)) in
        Alcotest.(check bool)
          (Printf.sprintf "%.1f words <= 19" per_call)
          true (per_call <= 19.));
    Alcotest.test_case "dcas2: a successful dcas_strong costs a dcas" `Quick
      (fun () ->
        (* success is the constant [Swapped]: no result tuple *)
        let strong a b () =
          let va = M.get a and vb = M.get b in
          match M.dcas_strong a b va vb (va + 1) (vb + 1) with
          | Swapped -> ()
          | Saw _ -> Alcotest.fail "uncontended strong write failed"
        in
        let w_dcas = words_per_call (write (M.make 0) (M.make 0)) in
        let w_strong = words_per_call (strong (M.make 0) (M.make 0)) in
        Alcotest.(check (float 0.))
          (Printf.sprintf "dcas_strong %.1f = dcas %.1f" w_strong w_dcas)
          w_dcas w_strong);
    Alcotest.test_case "dcas2: dcas and 2-entry casn agree with the reference"
      `Quick (fun () ->
        (* the same mixed op sequence — successful, failing, no-op and
           cross-type DCASes plus 2-entry CASNs — must be observationally
           identical on Mem_seq and on Mem_lockfree *)
        let module S = Dcas.Mem_seq in
        let la = M.make 0 and lb = M.make 100 in
        let sa = S.make 0 and sb = S.make 100 in
        let rng = Dcas.Splitmix.create ~seed:1 in
        for _ = 1 to 2_000 do
          let o1 = Dcas.Splitmix.int rng ~bound:4 in
          let o2 = 100 + Dcas.Splitmix.int rng ~bound:4 in
          let n1 = Dcas.Splitmix.int rng ~bound:4 in
          let n2 = 100 + Dcas.Splitmix.int rng ~bound:4 in
          let lr, sr =
            if Dcas.Splitmix.bool rng then
              ( M.casn [ M.Cass (la, o1, n1); M.Cass (lb, o2, n2) ],
                S.casn [ S.Cass (sa, o1, n1); S.Cass (sb, o2, n2) ] )
            else (M.dcas la lb o1 o2 n1 n2, S.dcas sa sb o1 o2 n1 n2)
          in
          Alcotest.(check bool) "verdicts agree" sr lr;
          Alcotest.(check int) "a agrees" (S.get sa) (M.get la);
          Alcotest.(check int) "b agrees" (S.get sb) (M.get lb)
        done);
  ]

(* --- stats record completeness --- *)

(* [of_counts] builds the record field by field (omitting one is a
   compile error), and Opstats' snapshot is built on it.  This test
   pins the runtime half: the count array lands in field order and no
   field is silently dropped by the export. *)
let stats_completeness_tests =
  let module I = Dcas.Memory_intf in
  let counted = Array.init I.stats_fields (fun i -> (i + 1) * 3) in
  [
    Alcotest.test_case "stats: assoc export covers every field" `Quick
      (fun () ->
        let assoc = I.stats_to_assoc (I.of_counts counted) in
        Alcotest.(check int) "one entry per field" I.stats_fields
          (List.length assoc);
        let names = List.map fst assoc in
        Alcotest.(check int)
          "names distinct" I.stats_fields
          (List.length (List.sort_uniq compare names));
        Alcotest.(check (list int))
          "values in field order" (Array.to_list counted)
          (List.map snd assoc);
        Alcotest.check_raises "arity mismatch rejected"
          (Invalid_argument "Memory_intf.of_counts: wrong arity")
          (fun () -> ignore (I.of_counts (Array.make (I.stats_fields - 1) 0))));
  ]

(* --- per-domain stats plumbing --- *)

let opstats_tests =
  [
    Alcotest.test_case "opstats: multi-domain aggregation is exact" `Quick
      (fun () ->
        let module M = Dcas.Mem_lockfree in
        M.reset_stats ();
        let domains = 4 and per_domain = 5_000 in
        let ds =
          List.init domains (fun i ->
              Domain.spawn (fun () ->
                  (* private locations, so the expected counts are
                     exact: every dcas on (a, b) is a deterministic
                     fast-fail, every dcas on (c, d) succeeds *)
                  let a = M.make (2 * i) and b = M.make ((2 * i) + 1) in
                  let c = M.make 0 and d = M.make 0 in
                  let ok = ref 0 in
                  for k = 0 to per_domain - 1 do
                    ignore (M.dcas a b (-1) (-1) 0 0);
                    if M.dcas c d k k (k + 1) (k + 1) then incr ok
                  done;
                  !ok))
        in
        let ok = List.fold_left (fun n d -> n + Domain.join d) 0 ds in
        let n = domains * per_domain in
        Alcotest.(check int) "every private dcas succeeded" n ok;
        let s = M.stats () in
        Alcotest.(check int) "attempts summed across domains" (2 * n)
          s.dcas_attempts;
        Alcotest.(check int) "fast-fails summed across domains" n
          s.dcas_fastfails;
        Alcotest.(check int) "successes summed across domains" n
          s.dcas_successes;
        Alcotest.(check int) "descriptors summed across domains" n
          s.descriptor_allocs;
        Alcotest.(check int) "dcas2 hits summed across domains" n
          s.dcas2_hits;
        Alcotest.(check int) "two value allocs per success" (2 * n)
          s.value_allocs);
    Alcotest.test_case "opstats: reset races with incrementers" `Quick
      (fun () ->
        let module M = Dcas.Mem_lockfree in
        let stop = Atomic.make false in
        let ds =
          List.init 3 (fun i ->
              Domain.spawn (fun () ->
                  let a = M.make (100 + (2 * i)) and b = M.make (101 + (2 * i)) in
                  while not (Atomic.get stop) do
                    ignore (M.dcas a b (-1) (-1) 0 0)
                  done))
        in
        (* hammer reset/snapshot while the incrementers run; the test
           is that nothing crashes, no count goes negative, and a final
           quiescent reset really zeroes every domain's bucket *)
        for _ = 1 to 200 do
          M.reset_stats ();
          let s = M.stats () in
          Alcotest.(check bool) "attempts non-negative" true
            (s.dcas_attempts >= 0)
        done;
        Atomic.set stop true;
        List.iter Domain.join ds;
        M.reset_stats ();
        let s = M.stats () in
        Alcotest.(check int) "attempts zero after quiescent reset" 0
          s.dcas_attempts;
        Alcotest.(check int) "fast-fails zero after quiescent reset" 0
          s.dcas_fastfails);
  ]

(* --- the monotonic int-ns clock --- *)

let clock_tests =
  let module C = Dcas.Clock in
  [
    Alcotest.test_case "now_ns allocates nothing" `Quick (fun () ->
        let sink = ref 0 in
        Alcotest.(check (float 0.)) "words per read" 0.
          (words_per_call (fun () -> sink := !sink lxor C.now_ns ())));
    (* Each domain checks that a read is at least the last value it
       saw published by either domain before that read, and at least
       its own previous read. *)
    Alcotest.test_case "now_ns never decreases across two domains" `Quick
      (fun () ->
        let last = Atomic.make (C.now_ns ()) in
        let reader () =
          let back = ref 0 and prev = ref 0 in
          for _ = 1 to 200_000 do
            let seen = Atomic.get last in
            let t = C.now_ns () in
            if t < seen || t < !prev then incr back;
            prev := t;
            Atomic.set last t
          done;
          !back
        in
        let d = Domain.spawn reader in
        let here = reader () in
        Alcotest.(check int) "reads that went back" 0 (here + Domain.join d));
    Alcotest.test_case "spans saturate instead of wrapping" `Quick (fun () ->
        Alcotest.(check int) "0.25 s" 250_000_000 (C.ns_of_s 0.25);
        Alcotest.(check int) "negative" 0 (C.ns_of_s (-1.));
        Alcotest.(check int) "infinity" max_int (C.ns_of_s infinity);
        Alcotest.(check int) "nan" max_int (C.ns_of_s nan);
        Alcotest.(check int) "1e300 s" max_int (C.ns_of_s 1e300);
        Alcotest.(check int) "after 1 us" 1_100 (C.after ~now:100 1e-6);
        Alcotest.(check int) "after infinity" max_int
          (C.after ~now:(C.now_ns ()) infinity);
        Alcotest.(check int) "after 1 s, near max_int" max_int
          (C.after ~now:(max_int - 5) 1.));
  ]

(* --- substrate odds and ends --- *)

let misc_tests =
  [
    Alcotest.test_case "backoff: parameter validation" `Quick (fun () ->
        Alcotest.check_raises "min_wait 0"
          (Invalid_argument "Backoff.create: need 1 <= min_wait <= max_wait")
          (fun () -> ignore (Dcas.Backoff.create ~min_wait:0 ()));
        Alcotest.check_raises "max < min"
          (Invalid_argument "Backoff.create: need 1 <= min_wait <= max_wait")
          (fun () -> ignore (Dcas.Backoff.create ~min_wait:8 ~max_wait:4 ())));
    Alcotest.test_case "backoff: once/reset terminate" `Quick (fun () ->
        let b = Dcas.Backoff.create ~min_wait:1 ~max_wait:4 () in
        for _ = 1 to 20 do
          Dcas.Backoff.once b
        done;
        Dcas.Backoff.reset b;
        Dcas.Backoff.once b);
    Alcotest.test_case "backoff: defaults are exposed and valid" `Quick
      (fun () ->
        Alcotest.(check bool) "1 <= min <= max" true
          (1 <= Dcas.Backoff.default_min_wait
          && Dcas.Backoff.default_min_wait <= Dcas.Backoff.default_max_wait);
        ignore
          (Dcas.Backoff.create ~min_wait:Dcas.Backoff.default_min_wait
             ~max_wait:Dcas.Backoff.default_max_wait ()));
    Alcotest.test_case "backoff: degenerate bounds terminate" `Quick (fun () ->
        (* min = max leaves a zero-width random range; each [once] must
           still return (the rng draw has bound 1) *)
        let b = Dcas.Backoff.create ~min_wait:3 ~max_wait:3 () in
        for _ = 1 to 50 do
          Dcas.Backoff.once b
        done;
        let b1 = Dcas.Backoff.create ~min_wait:1 ~max_wait:1 () in
        for _ = 1 to 50 do
          Dcas.Backoff.once b1
        done);
    Alcotest.test_case "id: strictly increasing" `Quick (fun () ->
        let a = Dcas.Id.next () in
        let b = Dcas.Id.next () in
        Alcotest.(check bool) "a < b" true (a < b));
    Alcotest.test_case "id: unique across domains" `Quick (fun () ->
        (* each domain draws from its own blocks: more than one block
           per domain, and no id handed out twice *)
        let per_domain = (2 * Dcas.Id.block) + 7 in
        let draw () = List.init per_domain (fun _ -> Dcas.Id.next ()) in
        let ds = List.init 3 (fun _ -> Domain.spawn draw) in
        let mine = draw () in
        let all = mine :: List.map Domain.join ds in
        List.iter
          (fun ids ->
            Alcotest.(check bool) "increasing within a domain" true
              (List.sort compare ids = ids))
          all;
        let ids = List.concat all in
        Alcotest.(check int) "all distinct" (List.length ids)
          (List.length (List.sort_uniq compare ids)));
    Alcotest.test_case "backoff: created on the first failure" `Quick
      (fun () ->
        let b = Dcas.Backoff.failed Dcas.Backoff.idle in
        Alcotest.(check bool) "a fresh state" true (b != Dcas.Backoff.idle);
        Alcotest.(check bool) "then kept" true (Dcas.Backoff.failed b == b));
    Alcotest.test_case "opstats: reset zeroes counters" `Quick (fun () ->
        let module M = Dcas.Mem_seq in
        M.reset_stats ();
        let l = M.make 0 in
        ignore (M.get l);
        M.set l 1;
        Alcotest.(check bool) "counted" true ((M.stats ()).reads >= 1);
        M.reset_stats ();
        let s = M.stats () in
        Alcotest.(check int) "reads zero" 0 s.reads;
        Alcotest.(check int) "writes zero" 0 s.writes);
    QCheck_alcotest.to_alcotest casn_matches_reference;
    QCheck_alcotest.to_alcotest fastfail_matches_reference;
    QCheck_alcotest.to_alcotest striped_matches_seq;
  ]

let () =
  Alcotest.run "dcas"
    [
      ("figure-1-semantics", List.concat_map seq_tests models);
      ("concurrent-atomicity", List.concat_map concurrent_tests concurrent_models);
      ("casn", casn_tests);
      ("fast-path", fastpath_tests);
      ("dcas2", dcas2_tests);
      ("stats-completeness", stats_completeness_tests);
      ("opstats", opstats_tests);
      ("substrate", misc_tests);
      ("clock", clock_tests);
    ]
