(* Tests for the measurement harness itself: RNG determinism and
   distribution sanity, table rendering, histograms, workload mixes and
   the runner's accounting.  The harness is load-bearing for every
   benchmark number in EXPERIMENTS.md, so it gets its own checks. *)

let test_splitmix_determinism () =
  let a = Dcas.Splitmix.create ~seed:123 in
  let b = Dcas.Splitmix.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Dcas.Splitmix.next_int64 a)
      (Dcas.Splitmix.next_int64 b)
  done

let test_splitmix_split_independent () =
  let master = Dcas.Splitmix.create ~seed:7 in
  let s1 = Dcas.Splitmix.split master in
  let s2 = Dcas.Splitmix.split master in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Dcas.Splitmix.next_int64 s1 = Dcas.Splitmix.next_int64 s2 then
      incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_splitmix_bounds () =
  let rng = Dcas.Splitmix.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Dcas.Splitmix.int rng ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Dcas.Splitmix.int rng ~bound:0))

let test_splitmix_uniformish () =
  let rng = Dcas.Splitmix.create ~seed:11 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Dcas.Splitmix.int rng ~bound:4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expect = n / 4 in
      if abs (c - expect) > expect / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expect)
    counts

(* The first draws of each kind for five seeds, recorded from the
   implementation that boxed its state in a mutable [int64] field.
   The benchmark's op streams and every seeded test read these
   streams, so a change of representation must keep them
   bit-identical. *)
type golden = {
  seed : int;
  next : int64 * int64;  (* the first two [next_int64] *)
  ints : int * int;  (* the first two [int], bounds 1_000_000_007 and max_int *)
  bools : string;  (* the first eight [bool], '1' for true *)
  split : int64 * int64;  (* a split's first draw, then its parent's next *)
}

let splitmix_golden =
  [
    {
      seed = 0;
      next = (-2152535657050944081L, 7960286522194355700L);
      ints = (162391415, 3348600503766967796);
      bools = "10101010";
      split = (-6411193824288604561L, 7960286522194355700L);
    };
    {
      seed = 1;
      next = (-7995527694508729151L, -4689498862643123097L);
      ints = (751136326, 4533873174211652711);
      bools = "11011011";
      split = (6791897765849424158L, -4689498862643123097L);
    };
    {
      seed = 7;
      next = (7191089600892374487L, 309689372594955804L);
      ints = (409161635, 309689372594955804);
      bools = "10010100";
      split = (-5137267319001854395L, 309689372594955804L);
    };
    {
      seed = -1;
      next = (-1956407806741107680L, -1612297016619662647L);
      ints = (99332873, 2999389001807725257);
      bools = "01100110";
      split = (6755974106381971767L, -1612297016619662647L);
    };
    {
      seed = max_int;
      next = (4890637089070741670L, 1157452369933151741L);
      ints = (690696290, 1157452369933151741);
      bools = "01100101";
      split = (-465555950222020276L, 1157452369933151741L);
    };
  ]

let test_splitmix_golden () =
  let module S = Dcas.Splitmix in
  List.iter
    (fun g ->
      let name what = Printf.sprintf "seed %d: %s" g.seed what in
      let t = S.create ~seed:g.seed in
      let a = S.next_int64 t in
      let b = S.next_int64 t in
      Alcotest.(check (pair int64 int64)) (name "next_int64") g.next (a, b);
      let t = S.create ~seed:g.seed in
      let i1 = S.int t ~bound:1_000_000_007 in
      let i2 = S.int t ~bound:max_int in
      Alcotest.(check (pair int int)) (name "int") g.ints (i1, i2);
      let t = S.create ~seed:g.seed in
      let bools = String.init 8 (fun _ -> if S.bool t then '1' else '0') in
      Alcotest.(check string) (name "bool") g.bools bools;
      let t = S.create ~seed:g.seed in
      let s = S.split t in
      let s1 = S.next_int64 s in
      Alcotest.(check (pair int64 int64)) (name "split") g.split
        (s1, S.next_int64 t))
    splitmix_golden

(* A draw allocates nothing: the state is stored unboxed.  Words per
   draw are the slope over the draw count, since [Gc.minor_words]
   boxes its own result. *)
let test_splitmix_allocates_nothing () =
  let rng = Dcas.Splitmix.create ~seed:3 in
  let sink = ref 0 in
  let per_draw = Test_support.words_per_call in
  Alcotest.(check (float 0.)) "words per int draw" 0.
    (per_draw (fun () -> sink := !sink + Dcas.Splitmix.int rng ~bound:10));
  Alcotest.(check (float 0.)) "words per bool draw" 0.
    (per_draw (fun () -> if Dcas.Splitmix.bool rng then incr sink))

let test_table_render () =
  let s =
    Harness.Table.render
      ~headers:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "23" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "5 lines (incl. trailing empty)" 5 (List.length lines);
  (* all non-empty lines are equally wide *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no output");
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.render: ragged row") (fun () ->
      ignore (Harness.Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ]))

let test_table_formats () =
  Alcotest.(check string) "ops M" "2.50M" (Harness.Table.ops_per_sec 2.5e6);
  Alcotest.(check string) "ops k" "3.0k" (Harness.Table.ops_per_sec 3.0e3);
  Alcotest.(check string) "ns" "750ns" (Harness.Table.ns 750.);
  Alcotest.(check string) "us" "1.50us" (Harness.Table.ns 1500.);
  Alcotest.(check string) "ratio" "2.00x" (Harness.Table.ratio 2.0)

module H = Dcas.Histogram

let test_histogram () =
  let h = H.create () in
  List.iter (H.record h)
    [ 100; 100; 100; 100; 100; 100; 100; 100; 100; 10_000 ];
  Alcotest.(check int) "count" 10 (H.count h);
  let p50 = H.quantile h 0.5 and p99 = H.quantile h 0.99 in
  Alcotest.(check bool) (Printf.sprintf "p50 %.0f bounds 100ns" p50) true
    (p50 >= 100. && p50 <= 100. *. (1. +. (1. /. 32.)));
  Alcotest.(check bool) (Printf.sprintf "p99 %.0f bounds 10us" p99) true
    (p99 >= 10_000. && p99 <= 10_000. *. (1. +. (1. /. 32.)));
  let w0 = Gc.minor_words () in
  for v = 0 to 9_999 do
    H.record h (v * 7_919)
  done;
  Alcotest.(check (float 0.)) "recording allocates nothing" 0.
    (Gc.minor_words () -. w0)

(* One histogram shared by every domain: recording is a single atomic
   increment, so no record is lost to a race. *)
let test_histogram_shared () =
  let h = H.create () in
  let per_domain = 100_000 in
  let worker d () =
    for i = 1 to per_domain do
      H.record h ((i * (d + 1)) land 0xFFFFF)
    done
  in
  List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (worker d)));
  Alcotest.(check int) "exact total" (4 * per_domain) (H.count h)

let test_histogram_overflow_and_empty () =
  let h = H.create () in
  Alcotest.(check bool) "empty reads nan" true
    (Float.is_nan (H.quantile h 0.5));
  H.record h ((1 lsl 36) - 1);
  Alcotest.(check (float 0.)) "top of range is a number"
    (float_of_int ((1 lsl 36) - 1))
    (H.quantile h 1.);
  for _ = 1 to 97 do
    H.record h 1_000
  done;
  H.record h (1 lsl 36);
  H.record h 100_000_000_000;
  Alcotest.(check int) "overflow counted" 100 (H.count h);
  Alcotest.(check bool) "p50 in range" true
    (Float.is_finite (H.quantile h 0.5));
  Alcotest.(check (float 0.)) "p99 reads overflow" infinity (H.quantile h 0.99)

(* The soaks' old linear histogram clamped everything past 65 536 x 500ns
   and read a 40ms tail as 32.768ms. *)
let test_histogram_tail_not_clipped () =
  let h = H.create () in
  H.record h 40_000_000;
  Alcotest.(check bool) "p99 >= 40ms" true (H.quantile h 0.99 >= 40e6)

(* Samples from 1ns to 60s, spread evenly over the octaves. *)
let samples_gen =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (let* e = int_range 0 35 in
       let* m = int_range 0 ((1 lsl e) - 1) in
       return (min 60_000_000_000 ((1 lsl e) + m))))

let quantiles = [ 0.; 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1. ]

let qcheck_histogram_bound =
  QCheck2.Test.make ~name:"quantile within 1/32 above nearest rank"
    ~count:300 samples_gen (fun samples ->
      let h = H.create () in
      List.iter (H.record h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank =
            max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))
          in
          let v = float_of_int sorted.(rank - 1) and u = H.quantile h q in
          v <= u && u <= v *. (1. +. (1. /. 32.)))
        quantiles)

let qcheck_histogram_monotone =
  QCheck2.Test.make ~name:"quantiles monotone in q" ~count:300
    QCheck2.Gen.(
      pair samples_gen (list_size (int_range 2 20) (float_bound_inclusive 1.)))
    (fun (samples, qs) ->
      let h = H.create () in
      List.iter (H.record h) samples;
      let us = List.map (H.quantile h) (List.sort compare qs) in
      fst
        (List.fold_left
           (fun (ok, prev) u -> (ok && prev <= u, u))
           (true, 0.) us))

let test_workload_mix () =
  let rng = Dcas.Splitmix.create ~seed:3 in
  let counts = Hashtbl.create 4 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  for _ = 1 to 10_000 do
    bump (Harness.Workload.draw Harness.Workload.push_heavy rng)
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let pushes = get Harness.Workload.Push_right + get Harness.Workload.Push_left in
  let pops = get Harness.Workload.Pop_right + get Harness.Workload.Pop_left in
  Alcotest.(check bool)
    (Printf.sprintf "push-heavy mix skews to pushes (%d vs %d)" pushes pops)
    true
    (pushes > 2 * pops)

let test_workload_right_only () =
  let rng = Dcas.Splitmix.create ~seed:4 in
  for _ = 1 to 1_000 do
    match Harness.Workload.draw Harness.Workload.right_only rng with
    | Harness.Workload.Push_right | Harness.Workload.Pop_right -> ()
    | Harness.Workload.Push_left | Harness.Workload.Pop_left ->
        Alcotest.fail "left operation drawn from right_only mix"
  done

(* [Workload.apply] over a handle allocates exactly what the drawn deque
   operation allocates: the handle's operations are applied to the
   instance once, so nothing is built per call (the four-closure form
   it replaced added 16 words per op).  The same seeded mix runs through
   the handle and straight on a twin deque. *)
let test_workload_apply_allocation () =
  let module A = Deque.Array_deque.Lockfree in
  let mix = Harness.Workload.balanced in
  let through_handle =
    let h = Deque.Deque_intf.create (module A) ~capacity:64 in
    let rng = Dcas.Splitmix.create ~seed:11 in
    Test_support.words_per_call (fun () ->
        ignore (Harness.Workload.apply h mix rng 1))
  in
  let bare =
    let d = A.create ~capacity:64 () in
    let rng = Dcas.Splitmix.create ~seed:11 in
    Test_support.words_per_call (fun () ->
        match Harness.Workload.draw mix rng with
        | Harness.Workload.Push_right -> ignore (A.push_right d 1)
        | Harness.Workload.Push_left -> ignore (A.push_left d 1)
        | Harness.Workload.Pop_right -> ignore (A.pop_right d)
        | Harness.Workload.Pop_left -> ignore (A.pop_left d))
  in
  Alcotest.(check bool)
    (Printf.sprintf "the deque allocates (%.2f words per op)" bare)
    true (bare > 0.);
  Alcotest.(check (float 0.)) "words per op: the deque's own" bare
    through_handle

let test_runner_counts () =
  let r =
    Harness.Runner.run ~threads:3 ~duration:0.05 (fun ~tid:_ ~rng:_ -> ())
  in
  Alcotest.(check int) "three buckets" 3 (Array.length r.Harness.Runner.per_thread);
  Array.iter
    (fun c -> Alcotest.(check bool) "every thread ran" true (c > 0))
    r.Harness.Runner.per_thread;
  Alcotest.(check bool) "throughput positive" true (Harness.Runner.throughput r > 0.)

let test_runner_fixed () =
  let hits = Array.make 3 0 in
  let _elapsed =
    Harness.Runner.run_fixed ~threads:3 ~iters:1000 (fun ~tid ~rng:_ ~i:_ ->
        hits.(tid) <- hits.(tid) + 1)
  in
  Array.iter (fun c -> Alcotest.(check int) "exact iteration count" 1000 c) hits

(* A raising body: both entry points join every worker and stop the
   watchdog before the exception propagates, so the other worker has
   finished its run and the same watchdog starts again. *)
exception Body_failed

let test_runner_raise_joins_all () =
  let check_entry name run =
    let w = Harness.Watchdog.create ~threads:2 () in
    let other = Atomic.make 0 in
    (match
       run ~watchdog:w (fun ~tid ->
           if tid = 0 then raise Body_failed else Atomic.incr other)
     with
    | () -> Alcotest.failf "%s: the body's exception was lost" name
    | exception Body_failed -> ());
    Alcotest.(check bool)
      (name ^ ": other worker joined") true
      (Atomic.get other > 0);
    let seen = Atomic.get other in
    Unix.sleepf 0.01;
    Alcotest.(check int) (name ^ ": nothing still running") seen
      (Atomic.get other);
    (match Harness.Watchdog.start w with
    | () -> ()
    | exception Invalid_argument m ->
        Alcotest.failf "%s: watchdog left running (%s)" name m);
    ignore (Harness.Watchdog.stop w)
  in
  check_entry "run" (fun ~watchdog body ->
      ignore
        (Harness.Runner.run ~watchdog ~threads:2 ~duration:0.05
           (fun ~tid ~rng:_ -> body ~tid)));
  check_entry "run_fixed" (fun ~watchdog body ->
      ignore
        (Harness.Runner.run_fixed ~watchdog ~threads:2 ~iters:20_000
           (fun ~tid ~rng:_ ~i:_ -> body ~tid)))

(* --- Stall request validation --- *)

module Fault_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)

let test_stall_validation () =
  List.iter
    (fun f ->
      match f () with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Harness.Stall.request ~after_ops:0 ~duration:0.1);
      (fun () -> Harness.Stall.request ~after_ops:(-3) ~duration:0.1);
      (fun () -> Harness.Stall.request ~after_ops:1 ~duration:(-0.5));
      (fun () -> Harness.Stall.request ~after_ops:1 ~duration:Float.nan);
    ];
  Alcotest.(check bool) "rejected requests leave nothing pending" false
    (Harness.Stall.pending ())

let test_stall_cancel_idempotent () =
  Harness.Stall.cancel ();
  Harness.Stall.cancel ();
  Alcotest.(check bool) "nothing pending" false (Harness.Stall.pending ());
  Harness.Stall.request ~after_ops:1000 ~duration:0.;
  Alcotest.(check bool) "armed" true (Harness.Stall.pending ());
  Harness.Stall.cancel ();
  Alcotest.(check bool) "cancelled" false (Harness.Stall.pending ());
  Harness.Stall.cancel ();
  Alcotest.(check bool) "still cancelled" false (Harness.Stall.pending ())

let test_stall_request_overwrites () =
  (* a second request replaces the first countdown, it does not queue:
     one instrumented read later the (new) 1-op request fires, and
     nothing remains pending *)
  Harness.Stall.request ~after_ops:1_000_000 ~duration:60.;
  Harness.Stall.request ~after_ops:1 ~duration:0.;
  ignore (Fault_mem.get (Fault_mem.make 0));
  Alcotest.(check bool) "single armed slot consumed" false
    (Harness.Stall.pending ())

(* --- Storm schedules over the shared slot table --- *)

let window ?(at = 0.) ?(hold = 0.) fault = { Harness.Storm.at; hold; fault }
let chaos = Harness.Storm.Chaos { fail_prob = 0.1; seed = 1 }

let test_storm_jittered () =
  let ws =
    [
      window ~at:0.5 ~hold:0.25 chaos;
      window ~at:1.0 ~hold:0.1 (Harness.Storm.Freeze { tid = 3 });
    ]
  in
  let a = Harness.Storm.jittered ~seed:7 ~jitter:0.1 ws in
  Alcotest.(check bool) "same seed, same schedule" true
    (a = Harness.Storm.jittered ~seed:7 ~jitter:0.1 ws);
  List.iter2
    (fun (w : Harness.Storm.window) (j : Harness.Storm.window) ->
      Alcotest.(check (float 0.)) "hold untouched" w.hold j.hold;
      Alcotest.(check bool) "shift within the jitter" true
        (Float.abs (j.at -. w.at) <= 0.1 +. 1e-9))
    ws a;
  (* an offset of 0 shifted by a uniform draw in [-1, 1] goes negative
     about half the time: every such draw must clamp to exactly 0 *)
  let ats =
    List.init 20 (fun seed ->
        match
          Harness.Storm.jittered ~seed ~jitter:1. [ window chaos ]
        with
        | [ j ] -> j.Harness.Storm.at
        | _ -> Alcotest.fail "one window in, one out")
  in
  Alcotest.(check bool) "never negative" true (List.for_all (( <= ) 0.) ats);
  Alcotest.(check bool) "some clamped to 0" true (List.mem 0. ats);
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Storm.jittered: jitter must be >= 0") (fun () ->
      ignore (Harness.Storm.jittered ~seed:1 ~jitter:(-0.1) ws))

let test_storm_validation () =
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Storm: window offsets must be >= 0") (fun () ->
      ignore (Harness.Storm.run [ window ~at:(-0.1) chaos ]));
  Alcotest.check_raises "negative hold"
    (Invalid_argument "Storm: window holds must be >= 0") (fun () ->
      ignore (Harness.Storm.run [ window ~hold:(-0.1) chaos ]));
  Alcotest.check_raises "chaos probability"
    (Invalid_argument "Storm: chaos fail_prob must be in [0, 1]") (fun () ->
      ignore
        (Harness.Storm.run
           [ window (Harness.Storm.Chaos { fail_prob = 1.5; seed = 1 }) ]))

(* An enrolled domain that keeps reading through the instrumented
   memory until [stop]; [Died] ends it early.  Returns once the reader
   has made its first read. *)
let spawn_reader ~tid stop =
  let cell = Fault_mem.make 0 and reading = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Harness.Fault.enroll ~tid;
        try
          while not (Atomic.get stop) do
            ignore (Fault_mem.get cell);
            Atomic.set reading true
          done;
          false
        with Harness.Crash.Died -> true)
  in
  while not (Atomic.get reading) do
    Unix.sleepf 0.001
  done;
  reader

let landed_of = function
  | [ l ] -> l.Harness.Storm.landed
  | _ -> Alcotest.fail "one window in, one landing out"

let test_storm_freeze_lands () =
  Harness.Fault.reset ();
  let stop = Atomic.make false in
  let reader = spawn_reader ~tid:3 stop in
  let landings =
    Harness.Storm.run
      [ window ~at:0.01 ~hold:0.1 (Harness.Storm.Freeze { tid = 3 }) ]
  in
  Atomic.set stop true;
  Alcotest.(check bool) "reader survived" false (Domain.join reader);
  Harness.Fault.reset ();
  Alcotest.(check bool) "freeze landed" true (landed_of landings)

let test_storm_zombie_unpolled () =
  Harness.Fault.reset ();
  let landings =
    Harness.Storm.run [ window ~hold:0.01 (Harness.Storm.Zombie { tid = 5 }) ]
  in
  Alcotest.(check bool) "nothing polled: not landed" false
    (landed_of landings);
  Alcotest.(check bool) "cured on close" false
    (Harness.Stall.Zombie.active ~tid:5)

let test_storm_on_active () =
  let seen = ref [] in
  ignore
    (Harness.Storm.run
       ~on_active:(fun n -> seen := n :: !seen)
       [ window ~hold:0.02 chaos; window ~at:0.005 ~hold:0.005 chaos ]);
  Alcotest.(check (list int)) "open windows after each edge" [ 1; 2; 1; 0 ]
    (List.rev !seen);
  Alcotest.(check bool) "chaos disarmed with the last window" false
    (Harness.Chaos.armed ())

(* Poll [p] for up to 5 s; its last value. *)
let wait_until p =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  p ()

(* An out-of-range victim is refused before any window opens: a freeze
   opened first would stay up when the kill raised, and a service
   driven by the schedule would wait forever to join its parked
   producer. *)
let test_storm_rejects_bad_tid () =
  Harness.Fault.reset ();
  let stop = Atomic.make false in
  let reader = spawn_reader ~tid:3 stop in
  let error =
    match
      Harness.Storm.run
        [
          window ~hold:1. (Harness.Storm.Freeze { tid = 3 });
          window ~at:0.01
            (Harness.Storm.Kill
               { tid = Harness.Fault.max_slots; mid_casn = true });
        ]
    with
    | _ -> None
    | exception Invalid_argument e -> Some e
  in
  Unix.sleepf 0.02;
  let parks = Harness.Stall.Freezer.freeze_hits_of ~tid:3 in
  Harness.Fault.reset ();
  Atomic.set stop true;
  ignore (Domain.join reader);
  Alcotest.(check (option string))
    "rejected"
    (Some
       (Printf.sprintf "Storm: window tid must be in [0, %d)"
          Harness.Fault.max_slots))
    error;
  Alcotest.(check int) "the freeze never opened" 0 parks

(* A run raising midway closes what it opened: the parked reader is
   thawed, the zombie cured, chaos disarmed. *)
let test_storm_raise_closes_windows () =
  Harness.Fault.reset ();
  let stop = Atomic.make false in
  let reader = spawn_reader ~tid:3 stop in
  let on_active n =
    if n = 3 then begin
      ignore (wait_until (fun () -> Harness.Stall.Freezer.frozen_now () = 1));
      failwith "on_active gave up"
    end
  in
  let raised =
    match
      Harness.Storm.run ~on_active
        [
          window ~hold:1. (Harness.Storm.Freeze { tid = 3 });
          window ~hold:1. (Harness.Storm.Zombie { tid = 4 });
          window ~hold:1. chaos;
        ]
    with
    | _ -> false
    | exception Failure _ -> true
  in
  let thawed =
    wait_until (fun () -> Harness.Stall.Freezer.frozen_now () = 0)
  in
  let parks = Harness.Stall.Freezer.freeze_hits_of ~tid:3 in
  let zombie = Harness.Stall.Zombie.active ~tid:4 in
  let armed = Harness.Chaos.armed () in
  Harness.Fault.reset ();
  Atomic.set stop true;
  ignore (Domain.join reader);
  Alcotest.(check bool) "raised" true raised;
  Alcotest.(check int) "the reader had parked" 1 parks;
  Alcotest.(check bool) "thawed" true thawed;
  Alcotest.(check bool) "cured" false zombie;
  Alcotest.(check bool) "chaos disarmed" false armed

(* The injectors share one slot table: a single enroll makes the
   domain both freezable and killable under the same id. *)
let test_one_enroll_freezes_and_kills () =
  Harness.Fault.reset ();
  let tid = 7 in
  let reader = spawn_reader ~tid (Atomic.make false) in
  Harness.Stall.Freezer.freeze ~tid;
  let deadline = Unix.gettimeofday () +. 10. in
  while
    Harness.Stall.Freezer.frozen_now () = 0 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  Harness.Crash.kill ~mode:`At_point ~tid ();
  Harness.Stall.Freezer.thaw ~tid;
  Alcotest.(check bool) "died after the thaw" true (Domain.join reader);
  Alcotest.(check int) "parked once" 1
    (Harness.Stall.Freezer.freeze_hits_of ~tid);
  Alcotest.(check bool) "killed under the same id" true
    (Harness.Crash.killed ~tid);
  Harness.Fault.reset ()

(* --- Watchdog --- *)

let test_watchdog_validation () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Harness.Watchdog.create ~threads:0 ());
      (fun () -> Harness.Watchdog.create ~interval:0. ~threads:1 ());
      (fun () -> Harness.Watchdog.create ~stall_after:(-1.) ~threads:1 ());
    ]

let test_watchdog_quiet_when_progressing () =
  let w =
    Harness.Watchdog.create ~interval:0.01 ~stall_after:0.2
      ~on_stall:(fun _ -> Alcotest.fail "fired despite progress")
      ~threads:1 ()
  in
  Harness.Watchdog.start w;
  for _ = 1 to 20 do
    Harness.Watchdog.tick w ~tid:0;
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "no stalls" 0 (Harness.Watchdog.stop w);
  Alcotest.(check int) "ticks accounted" 20 (Harness.Watchdog.total w)

let test_watchdog_fires_and_rearms () =
  let snaps = ref [] in
  let w =
    Harness.Watchdog.create ~interval:0.01 ~stall_after:0.05
      ~on_stall:(fun s -> snaps := s :: !snaps)
      ~threads:2 ()
  in
  Harness.Watchdog.note w ~tid:0 "first-stall";
  Harness.Watchdog.start w;
  let wait_for_stalls n =
    let deadline = Unix.gettimeofday () +. 5. in
    while Harness.Watchdog.stalls w < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done
  in
  wait_for_stalls 1;
  Alcotest.(check bool) "fired" true (Harness.Watchdog.fired w);
  (* progress re-arms the detector; a second stall is a new episode *)
  Harness.Watchdog.tick w ~tid:1;
  wait_for_stalls 2;
  Alcotest.(check int) "two episodes" 2 (Harness.Watchdog.stop w);
  match List.rev !snaps with
  | first :: _ ->
      Alcotest.(check bool) "waited at least the threshold" true
        (first.Harness.Watchdog.waited >= 0.05);
      Alcotest.(check int) "two counters" 2
        (Array.length first.Harness.Watchdog.per_thread);
      Alcotest.(check string) "noted op surfaces" "first-stall"
        first.Harness.Watchdog.last_op.(0)
  | [] -> Alcotest.fail "no snapshot captured"

let test_watchdog_double_start_rejected () =
  let w = Harness.Watchdog.create ~threads:1 () in
  Harness.Watchdog.start w;
  Alcotest.(check bool) "second start rejected" true
    (match Harness.Watchdog.start w with
    | () -> false
    | exception Invalid_argument _ -> true);
  ignore (Harness.Watchdog.stop w);
  ignore (Harness.Watchdog.stop w) (* stop is a no-op when not running *)

(* --- Starvation metrics --- *)

let test_starvation () =
  let s = Harness.Metrics.Starvation.of_counts [| 100; 100; 100 |] in
  Alcotest.(check int) "min" 100 s.Harness.Metrics.Starvation.min_ops;
  Alcotest.(check int) "max" 100 s.Harness.Metrics.Starvation.max_ops;
  Alcotest.(check (float 1e-9)) "fair" 0. s.Harness.Metrics.Starvation.imbalance;
  let s = Harness.Metrics.Starvation.of_counts [| 0; 200; 100 |] in
  Alcotest.(check int) "min" 0 s.Harness.Metrics.Starvation.min_ops;
  Alcotest.(check int) "max" 200 s.Harness.Metrics.Starvation.max_ops;
  Alcotest.(check (float 1e-9)) "imbalance (max-min)/mean" 2.
    s.Harness.Metrics.Starvation.imbalance;
  let z = Harness.Metrics.Starvation.of_counts [| 0; 0 |] in
  Alcotest.(check (float 1e-9)) "all-zero counts are fair" 0.
    z.Harness.Metrics.Starvation.imbalance;
  Alcotest.(check bool) "empty rejected" true
    (match Harness.Metrics.Starvation.of_counts [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Json: rows from a partially-failed soak cell must always parse --- *)

let test_json_control_chars () =
  (* every control character, DEL included, must escape to something
     the parser reads back byte-for-byte *)
  let raw = Buffer.create 130 in
  for code = 0 to 0x1f do
    Buffer.add_char raw (Char.chr code)
  done;
  Buffer.add_string raw "plain \"quoted\" back\\slash";
  Buffer.add_char raw '\x7f';
  let s = Buffer.contents raw in
  let doc = Harness.Json.Obj [ ("label", Harness.Json.String s) ] in
  let text = Harness.Json.to_string doc in
  String.iter
    (fun c ->
      if Char.code c < 0x20 || Char.code c = 0x7f then
        Alcotest.failf "raw control byte 0x%02x leaked into output"
          (Char.code c))
    text;
  match Harness.Json.(member "label" (of_string text)) with
  | Harness.Json.String s' -> Alcotest.(check string) "round trip" s s'
  | _ -> Alcotest.fail "label did not parse back as a string"

let test_json_nonfinite_floats () =
  let doc =
    Harness.Json.List
      [
        Harness.Json.Float Float.nan;
        Harness.Json.Float Float.infinity;
        Harness.Json.Float Float.neg_infinity;
        Harness.Json.Float 1.5;
      ]
  in
  let text = Harness.Json.to_string doc in
  Alcotest.(check string) "nan/inf emitted as null" "[null,null,null,1.5]"
    text;
  (* and the result still parses *)
  match Harness.Json.of_string text with
  | Harness.Json.List [ Null; Null; Null; Float f ] ->
      Alcotest.(check (float 0.)) "finite float survives" 1.5 f
  | _ -> Alcotest.fail "unexpected parse shape"

(* Property: any byte string survives a full encode/parse round trip
   as an object member, and the encoding never leaks a raw control
   byte (the partially-written labels of a crashed soak cell are
   exactly "any byte string").  QCheck2's string generator covers the
   full char range, including quotes, backslashes, DEL and NUL. *)
let json_string_roundtrip =
  QCheck2.Test.make ~name:"json string round trip" ~count:1000
    ~print:QCheck2.Print.string
    QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (0 -- 64))
    (fun s ->
      let text =
        Harness.Json.to_string
          (Harness.Json.Obj [ ("s", Harness.Json.String s) ])
      in
      String.iter
        (fun c ->
          if Char.code c < 0x20 || Char.code c = 0x7f then
            QCheck2.Test.fail_reportf "raw control byte 0x%02x in %S"
              (Char.code c) text)
        text;
      match Harness.Json.(member "s" (of_string text)) with
      | Harness.Json.String s' -> String.equal s s'
      | _ -> false)

(* --- Compare: the bench --compare verdict logic --- *)

let compare_schema = "compare-test/1"

let write_doc text =
  let file = Filename.temp_file "bench" ".json" in
  let oc = open_out file in
  output_string oc text;
  close_out oc;
  file

(* One experiment, rows given as (section, domains, ops_per_sec as raw
   JSON text) — raw text so tests can plant null / strings where a
   number belongs. *)
let doc_with rows =
  Printf.sprintf
    {|{"schema":"%s","experiments":[{"id":"e1","rows":[%s]}]}|}
    compare_schema
    (String.concat ","
       (List.map
          (fun (section, domains, ops) ->
            Printf.sprintf
              {|{"section":"%s","domains":%d,"ops_per_sec":%s}|} section
              domains ops)
          rows))

let run_compare ~old_rows ~new_rows =
  let old_file = write_doc (doc_with old_rows) in
  let new_file = write_doc (doc_with new_rows) in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  v

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_invalid name substring = function
  | Harness.Compare.Invalid m ->
      if not (contains ~sub:substring m) then
        Alcotest.failf "%s: diagnostic %S lacks %S" name m substring
  | Harness.Compare.Compared _ ->
      Alcotest.failf "%s: expected Invalid, got Compared" name

let test_compare_clean () =
  match
    run_compare
      ~old_rows:
        [ ("soak", 1, "1000.0"); ("shootout", 1, "500.0");
          ("shootout", 2, "400.0") ]
      ~new_rows:
        [ ("soak", 1, "950.0"); ("shootout", 1, "480.0");
          (* non-hot multi-domain rows may swing arbitrarily *)
          ("shootout", 2, "100.0") ]
  with
  | Harness.Compare.Compared { matched; regressions } ->
      Alcotest.(check int) "matched" 3 matched;
      Alcotest.(check int) "no regressions" 0 (List.length regressions)
  | Harness.Compare.Invalid m -> Alcotest.failf "unexpected Invalid: %s" m

let test_compare_regression () =
  match
    run_compare
      ~old_rows:[ ("soak", 1, "1000.0"); ("shootout", 1, "500.0") ]
      ~new_rows:[ ("soak", 1, "700.0"); ("shootout", 1, "490.0") ]
  with
  | Harness.Compare.Compared { matched; regressions } ->
      Alcotest.(check int) "matched" 2 matched;
      Alcotest.(check int) "one regression" 1 (List.length regressions)
  | Harness.Compare.Invalid m -> Alcotest.failf "unexpected Invalid: %s" m

let test_compare_missing_file () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file
      ~new_file:"/nonexistent/bench.json" ()
  in
  Sys.remove old_file;
  check_invalid "missing file" "cannot read" v

let test_compare_malformed_json () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let new_file = write_doc "{\"schema\": oops" in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  check_invalid "malformed json" "invalid JSON" v

let test_compare_wrong_schema () =
  let old_file = write_doc (doc_with [ ("soak", 1, "1.0") ]) in
  let new_file = write_doc {|{"schema":"other/9","experiments":[]}|} in
  let v =
    Harness.Compare.run ~schema:compare_schema ~old_file ~new_file ()
  in
  Sys.remove old_file;
  Sys.remove new_file;
  check_invalid "wrong schema" "unexpected schema" v

let test_compare_nan_cell () =
  (* Json.to_string writes NaN as null, so a NaN measurement reaches
     the comparison as a null ops_per_sec in a matched cell *)
  check_invalid "null ops" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "1000.0") ]
       ~new_rows:[ ("soak", 1, "null") ]);
  check_invalid "string ops" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "\"fast\"") ]
       ~new_rows:[ ("soak", 1, "1000.0") ]);
  check_invalid "zero baseline" "ops_per_sec"
    (run_compare
       ~old_rows:[ ("soak", 1, "0.0") ]
       ~new_rows:[ ("soak", 1, "1000.0") ])

let test_compare_nothing_matched () =
  check_invalid "disjoint rows" "no comparable rows"
    (run_compare
       ~old_rows:[ ("soak", 1, "1000.0") ]
       ~new_rows:[ ("shootout", 1, "1000.0") ])

let () =
  Alcotest.run "harness"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "uniformity" `Quick test_splitmix_uniformish;
          Alcotest.test_case "golden streams" `Quick test_splitmix_golden;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_splitmix_allocates_nothing;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram shared across domains" `Quick
            test_histogram_shared;
          Alcotest.test_case "histogram overflow and empty" `Quick
            test_histogram_overflow_and_empty;
          Alcotest.test_case "histogram 40ms tail not clipped" `Quick
            test_histogram_tail_not_clipped;
          QCheck_alcotest.to_alcotest qcheck_histogram_bound;
          QCheck_alcotest.to_alcotest qcheck_histogram_monotone;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mix skew" `Quick test_workload_mix;
          Alcotest.test_case "right-only" `Quick test_workload_right_only;
          Alcotest.test_case "apply allocates only the deque's words" `Quick
            test_workload_apply_allocation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "timed run" `Quick test_runner_counts;
          Alcotest.test_case "fixed run" `Quick test_runner_fixed;
          Alcotest.test_case "raising body: all joined, watchdog stopped"
            `Quick test_runner_raise_joins_all;
        ] );
      ( "stall",
        [
          Alcotest.test_case "request validation" `Quick test_stall_validation;
          Alcotest.test_case "cancel idempotent" `Quick
            test_stall_cancel_idempotent;
          Alcotest.test_case "request overwrites" `Quick
            test_stall_request_overwrites;
        ] );
      ( "storm",
        [
          Alcotest.test_case "jittered" `Quick test_storm_jittered;
          Alcotest.test_case "run validation" `Quick test_storm_validation;
          Alcotest.test_case "freeze lands on a reader" `Quick
            test_storm_freeze_lands;
          Alcotest.test_case "unpolled zombie does not land" `Quick
            test_storm_zombie_unpolled;
          Alcotest.test_case "on_active counts open windows" `Quick
            test_storm_on_active;
          Alcotest.test_case "out-of-range tid rejected up front" `Quick
            test_storm_rejects_bad_tid;
          Alcotest.test_case "raising run closes its windows" `Quick
            test_storm_raise_closes_windows;
          Alcotest.test_case "one enroll: freezable and killable" `Quick
            test_one_enroll_freezes_and_kills;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "create validation" `Quick
            test_watchdog_validation;
          Alcotest.test_case "quiet while progressing" `Quick
            test_watchdog_quiet_when_progressing;
          Alcotest.test_case "fires and re-arms" `Quick
            test_watchdog_fires_and_rearms;
          Alcotest.test_case "double start rejected" `Quick
            test_watchdog_double_start_rejected;
        ] );
      ( "starvation",
        [ Alcotest.test_case "imbalance" `Quick test_starvation ] );
      ( "json",
        [
          Alcotest.test_case "control characters escaped" `Quick
            test_json_control_chars;
          Alcotest.test_case "nan/inf encode as null" `Quick
            test_json_nonfinite_floats;
          QCheck_alcotest.to_alcotest json_string_roundtrip;
        ] );
      ( "compare",
        [
          Alcotest.test_case "clean compare" `Quick test_compare_clean;
          Alcotest.test_case "hot-path regression flagged" `Quick
            test_compare_regression;
          Alcotest.test_case "missing file is invalid" `Quick
            test_compare_missing_file;
          Alcotest.test_case "malformed json is invalid" `Quick
            test_compare_malformed_json;
          Alcotest.test_case "wrong schema is invalid" `Quick
            test_compare_wrong_schema;
          Alcotest.test_case "corrupt ops_per_sec is invalid" `Quick
            test_compare_nan_cell;
          Alcotest.test_case "nothing matched is invalid" `Quick
            test_compare_nothing_matched;
        ] );
    ]
