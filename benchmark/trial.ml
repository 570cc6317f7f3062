(* One trial of one workload, run in a process of its own: set up,
   warm up, measure a window, tear down, check the outputs.

   The closed-loop workload drives one list deque from two domains, one
   per end.  The service workloads drive [Worksteal.Shard_service] with one
   producer and one consumer, observed through its [on_push]/[on_pop]
   hooks: the value a consumer pops is the producer's send counter,
   which with a single producer is a unique request id. *)

let now = Trace.now
let seconds ns = float_of_int ns /. 1e9

(* Exact quantiles (nearest rank) of raw samples: [quantiles a q]. *)
let quantiles samples =
  let a = Array.copy samples in
  Array.sort Int.compare a;
  let n = Array.length a in
  fun q ->
    if n = 0 then 0.
    else
      let r = int_of_float (ceil (q *. float_of_int n)) in
      float_of_int a.(max 0 (min (n - 1) (r - 1)))

(* The p99 is printed but not gated: on two cores it is set by
   how the OS schedules three or more domains, and moves by more than
   any usable bound from run to run. *)
let tail samples lat =
  [
    ("p99_us", lat 0.99 /. 1e3);
    ("latency_samples", float_of_int (Array.length samples));
  ]

let ratio a b = if b = 0. then 0. else a /. b
let share a b = ratio (float_of_int a) (float_of_int b)

type result = {
  attempted : int;
  failed : int;
  violations : string list;
  e2e : (string * float) list;
  layer : (string * float) list;  (* declared per-layer metrics *)
  extra : (string * float) list;  (* printed in tables only *)
}

(* --- the measurement window --- *)

type snap = {
  t : int;
  stats : Dcas.Memory_intf.stats;
  gc : Gc.stat;
}

(* [Gc.minor] makes every domain publish its allocation counters, so
   the difference of two snapshots counts the words all domains
   allocated in between.  Callers read their own counters right after
   each snapshot, so both windows cover the same span. *)
let snap () =
  Gc.minor ();
  { t = now (); stats = Dcas.Mem_lockfree.stats (); gc = Gc.quick_stat () }

let window_metrics s0 s1 ~units =
  let d f = f s1.stats - f s0.stats in
  let open Dcas.Memory_intf in
  let per x = share x units in
  let window_s = seconds (s1.t - s0.t) in
  let attempts = d (fun s -> s.dcas_attempts) in
  let descriptors = d (fun s -> s.descriptor_allocs) in
  ( ratio (s1.gc.Gc.minor_words -. s0.gc.Gc.minor_words) (float_of_int units),
    [
      ("dcas.attempts_per_op", per attempts);
      ("dcas.success_share", share (d (fun s -> s.dcas_successes)) attempts);
      ("dcas.fastfail_share", share (d (fun s -> s.dcas_fastfails)) attempts);
      ("dcas.reads_per_op", per (d (fun s -> s.reads)));
      ("dcas.descriptors_per_op", per descriptors);
      ("dcas.value_allocs_per_op", per (d (fun s -> s.value_allocs)));
      ("dcas.dcas2_share", share (d (fun s -> s.dcas2_hits)) descriptors);
      ( "runtime.minor_gcs_per_s",
        ratio
          (float_of_int (s1.gc.Gc.minor_collections - s0.gc.Gc.minor_collections))
          window_s );
      ( "runtime.major_gcs_per_s",
        ratio
          (float_of_int (s1.gc.Gc.major_collections - s0.gc.Gc.major_collections))
          window_s );
      ("runtime.top_heap_mb", float_of_int (s1.gc.Gc.top_heap_words * 8) /. 1e6);
    ] )

(* Per-layer times from the trace of a traced trial. *)
let trace_metrics (s : Trace.summary) ~units =
  let q names = quantiles (Array.concat (List.map (fun n -> s.durations.(n)) names)) in
  let dcas = q Trace.[ dcas; dcas_strong ] in
  let push = q [ Trace.deque_push ] and pop = q [ Trace.deque_pop ] in
  let deque_calls = s.count.(Trace.deque_push) + s.count.(Trace.deque_pop) in
  let self_share l = share s.layer_self.(l) s.root_ns in
  ( [
      ("dcas.call_ns.p50", dcas 0.5);
      ("dcas.call_ns.p99", dcas 0.99);
      ("dcas.self_share", self_share 0);
      ("deque.push_ns.p50", push 0.5);
      ("deque.push_ns.p99", push 0.99);
      ("deque.pop_ns.p50", pop 0.5);
      ("deque.pop_ns.p99", pop 0.99);
      ( "deque.self_ns.mean",
        share (s.self.(Trace.deque_push) + s.self.(Trace.deque_pop)) deque_calls );
      ( "deque.empty_share",
        share s.miss.(Trace.deque_pop) s.count.(Trace.deque_pop) );
      ( "deque.full_share",
        share s.miss.(Trace.deque_push) s.count.(Trace.deque_push) );
      ("deque.calls_per_req", share deque_calls units);
      ("sharded.self_share", self_share 2);
    ],
    ("trees", float_of_int s.trees)
    :: List.init (Array.length Trace.layers) (fun l ->
           ("self_share." ^ Trace.layers.(l), self_share l)) )

(* --- the layer-cost ledger: the op stream through ever more layers --- *)

module Ledger (D : Deque.Deque_intf.S) = struct
  module P = Deque.Policy.Make (D)
  module S = Deque.Sharded.Make (D)

  let measure ops ~calls ~push ~pop =
    let mask = Bytes.length ops - 1 in
    let w0 = Gc.minor_words () and t0 = now () in
    for i = 0 to calls - 1 do
      match Bytes.unsafe_get ops (i land mask) with
      | '\000' -> ignore (push ~left:true i)
      | '\001' -> ignore (push ~left:false i)
      | '\002' -> ignore (pop ~left:true i)
      | _ -> ignore (pop ~left:false i)
    done;
    let ns = float_of_int (now () - t0) /. float_of_int calls in
    (ns, (Gc.minor_words () -. w0) /. float_of_int calls)

  (* Median over 5 interleaved rounds of ns/op and words/op for the
     bare deque, Policy over it, and Sharded (K = 4) over that. *)
  let run ops ~calls =
    let capacity = 65_536 and rounds = 5 in
    let bare = D.create ~capacity () in
    let pol = P.create ~full:Deque.Policy.Reject ~capacity () in
    let sh = S.create ~full:Deque.Policy.Reject ~shards:4 ~capacity () in
    for k = 1 to 128 do
      ignore (D.push_right bare k);
      ignore (P.push_right pol k);
      ignore (S.push sh ~key:k k)
    done;
    let stacks =
      [|
        (fun () ->
          measure ops ~calls
            ~push:(fun ~left v ->
              if left then ignore (D.push_left bare v)
              else ignore (D.push_right bare v))
            ~pop:(fun ~left _ ->
              if left then ignore (D.pop_left bare)
              else ignore (D.pop_right bare)));
        (fun () ->
          measure ops ~calls
            ~push:(fun ~left v ->
              ignore (P.push pol ~side:(if left then `Left else `Right) v))
            ~pop:(fun ~left _ ->
              ignore (P.pop pol ~side:(if left then `Left else `Right))));
        (fun () ->
          measure ops ~calls
            ~push:(fun ~left v ->
              ignore (S.push ~urgent:left sh ~key:(v land 1023) v))
            ~pop:(fun ~left i -> ignore (S.pop ~urgent:left sh ~key:(i land 1023))));
      |]
    in
    let results = Array.map (fun _ -> Array.make rounds (0., 0.)) stacks in
    for r = 0 to rounds - 1 do
      Array.iteri (fun s f -> results.(s).(r) <- f ()) stacks
    done;
    let med s pick =
      let a = Array.map pick results.(s) in
      Array.sort compare a;
      a.(rounds / 2)
    in
    let ns s = med s fst and words s = med s snd in
    ( [
        ("policy.extra_ns_per_op", ns 1 -. ns 0);
        ("policy.extra_words_per_op", words 1 -. words 0);
        ("sharded.extra_ns_per_op", ns 2 -. ns 1);
        ("sharded.extra_words_per_op", words 2 -. words 1);
      ],
      List.concat_map
        (fun (s, label) ->
          [
            ("ledger." ^ label ^ ".ns_per_op", ns s);
            ("ledger." ^ label ^ ".words_per_op", words s);
          ])
        [ (0, "deque"); (1, "policy"); (2, "sharded") ] )
end

module type LEDGER = sig
  val run : Bytes.t -> calls:int -> (string * float) list * (string * float) list
end

module List_ledger = Ledger (Deque.List_deque.Lockfree)
module Array_ledger = Ledger (Deque.Array_deque.Lockfree)

(* --- closed loop: two domains on one list deque, one per end --- *)

let domains = 2
let prefill = 256
let stream_len = 1 lsl 16
let drift = 63

(* Op codes: push left, push right, pop left, pop right. *)
let both_ends = [| 0; 1; 2; 3 |]
let end_of wid = if wid = 0 then [| 0; 2 |] else [| 1; 3 |]

(* A uniform draw from [codes], redrawn whenever the stream's net
   pushes would leave [-drift, drift] or could no longer return to 0
   by its end, so a stream can be replayed in a cycle.  Two such
   streams over a prefill of 256 keep at least 130 items in the deque,
   whatever the seed: the two ends never touch the same location. *)
let op_stream ~seed codes =
  let rng = Dcas.Splitmix.create ~seed in
  let ops = Bytes.create stream_len in
  let net = ref 0 in
  for i = 0 to stream_len - 1 do
    let room = min drift (stream_len - i - 1) in
    let rec draw () =
      let op = codes.(Dcas.Splitmix.int rng ~bound:(Array.length codes)) in
      let net' = if op < 2 then !net + 1 else !net - 1 in
      if abs net' <= room then begin
        net := net';
        op
      end
      else draw ()
    in
    Bytes.set ops i (Char.chr (draw ()))
  done;
  ops

type worker = {
  ops : Bytes.t;
  wid : int;
  mutable calls : int;
  mutable okay : int;
  mutable full : int;
  mutable got : int;
  mutable empty : int;
  mutable pushed_sum : int;
  mutable popped_sum : int;
  lat : int array;  (* each request's latency inside the window, ns *)
  mutable n_lat : int;
}

let waiting = 0
let warm = 1
let measuring = 2
let cooling = 3
let stop = 4

(* Set-up is timed several times per trial and reported as the median,
   so one slow domain spawn does not decide it. *)
let setups = 5

let median_setup times =
  let a = Array.of_list times in
  Array.sort compare a;
  a.(Array.length a / 2)

(* A closed-loop client's request is 16 consecutive deque calls: timing
   single sub-microsecond calls measures the clock and the cache more
   than the deque. *)
let request_calls = 16

module Closed_loop (D : Deque.Deque_intf.S) = struct
  let work q w ~phase =
    let mask = Bytes.length w.ops - 1 in
    let t0 = ref 0 in
    while Atomic.get phase <> stop do
      let i = w.calls in
      if i mod request_calls = 0 then t0 := now ();
      (match Bytes.unsafe_get w.ops (i land mask) with
      | ('\000' | '\001') as c -> (
          let v = (i lsl 1) lor w.wid in
          match if c = '\000' then D.push_left q v else D.push_right q v with
          | `Okay ->
              w.okay <- w.okay + 1;
              w.pushed_sum <- w.pushed_sum + v
          | `Full -> w.full <- w.full + 1)
      | c -> (
          match if c = '\002' then D.pop_left q else D.pop_right q with
          | `Value v ->
              w.got <- w.got + 1;
              w.popped_sum <- w.popped_sum + v
          | `Empty -> w.empty <- w.empty + 1));
      if
        i mod request_calls = request_calls - 1
        && w.n_lat < Array.length w.lat
        && Atomic.get phase = measuring
      then begin
        w.lat.(w.n_lat) <- now () - !t0;
        w.n_lat <- w.n_lat + 1
      end;
      w.calls <- i + 1
    done

  (* The deque, its prefill, and the worker domains waiting at the
     start line. *)
  let setup workers ~phase ~refused =
    let ready = Atomic.make 0 in
    let t0 = now () in
    let q = D.create ~capacity:65_536 () in
    for k = 1 to prefill do
      if D.push_right q (-k) <> `Okay then incr refused
    done;
    let ds =
      Array.map
        (fun w ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              (* parked, not spinning: two spinners would starve the
                 spawning domain on two cores *)
              while Atomic.get phase = waiting do Unix.sleepf 0.0002 done;
              work q w ~phase))
        workers
    in
    while Atomic.get ready < domains do Domain.cpu_relax () done;
    (q, ds, seconds (now () - t0))

  let trial ~seed ~warmup ~window ~traced ~spans_file ~ledger =
    let workers =
      Array.init domains (fun wid ->
          {
            ops = op_stream ~seed:((seed * 7919) + wid) (end_of wid);
            wid;
            calls = 0;
            okay = 0;
            full = 0;
            got = 0;
            empty = 0;
            pushed_sum = 0;
            popped_sum = 0;
            lat = Array.make (int_of_float (window *. 500_000.) + 1024) 0;
            n_lat = 0;
          })
    in
    let violations = ref [] in
    let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let times = ref [] and refused = ref 0 in
    for _ = 2 to setups do
      let phase = Atomic.make waiting in
      let _, ds, t = setup workers ~phase ~refused in
      times := t :: !times;
      Atomic.set phase stop;
      Array.iter Domain.join ds
    done;
    let phase = Atomic.make waiting in
    let q, ds, t = setup workers ~phase ~refused in
    let setup_s = median_setup (t :: !times) in
    if !refused > 0 then violate "%d prefill pushes refused" !refused;
    Atomic.set phase warm;
    Unix.sleepf warmup;
    let calls () = Array.fold_left (fun n w -> n + w.calls) 0 workers in
    let s0 = snap () in
    let c0 = calls () in
    Atomic.set Trace.active traced;
    Atomic.set phase measuring;
    Unix.sleepf window;
    Atomic.set phase cooling;
    Atomic.set Trace.active false;
    let s1 = snap () in
    let c1 = calls () in
    Atomic.set phase stop;
    Array.iter Domain.join ds;
    (* outputs: nothing lost, nothing duplicated *)
    let rec drain n sum =
      match D.pop_left q with `Value v -> drain (n + 1) (sum + v) | `Empty -> (n, sum)
    in
    let left, left_sum = drain 0 0 in
    let total f = Array.fold_left (fun n w -> n + f w) 0 workers in
    let okay = total (fun w -> w.okay) and got = total (fun w -> w.got) in
    if prefill + okay <> got + left then
      violate "count: prefill %d + pushed %d <> popped %d + drained %d" prefill
        okay got left;
    let prefill_sum = -(prefill * (prefill + 1) / 2) in
    let pushed_sum = prefill_sum + total (fun w -> w.pushed_sum) in
    if pushed_sum <> total (fun w -> w.popped_sum) + left_sum then
      violate "checksum: pushed values differ from popped values";
    let units = c1 - c0 in
    let words, counts = window_metrics s0 s1 ~units in
    let samples =
      Array.concat
        (Array.to_list (Array.map (fun w -> Array.sub w.lat 0 w.n_lat) workers))
    in
    let lat = quantiles samples in
    let pops = got + total (fun w -> w.empty) in
    let traced_layer, traced_extra =
      if traced then
        trace_metrics ~units
          (Trace.summarise ~spans_file ~t0:s0.t ())
      else ([], [])
    in
    let ledger_layer, ledger_extra = if traced then ledger () else ([], []) in
    {
      attempted = units;
      failed = List.length !violations;
      violations = List.rev !violations;
      e2e =
        [
          ("ops_per_s", float_of_int units /. seconds (s1.t - s0.t));
          ("p50_us", lat 0.5 /. 1e3);
          ("p90_us", lat 0.9 /. 1e3);
          ("words_per_op", words);
          ("setup_s", setup_s);
        ];
      layer =
        counts @ traced_layer @ ledger_layer
        @ [
            ("deque.empty_share", share (total (fun w -> w.empty)) pops);
            ( "deque.full_share",
              share (total (fun w -> w.full)) (okay + total (fun w -> w.full)) );
          ];
      extra = tail samples lat @ traced_extra @ ledger_extra;
    }
end

(* --- the service, driven through its hooks --- *)

type service = {
  rate : float;  (* open-loop arrivals/s; 0 = closed loop *)
  outstanding : int;  (* closed loop: sends wait while this many are unserved *)
  stride : int;  (* requests whose id is a multiple are timed *)
  max_rate : float;  (* sizes the per-request arrays *)
}

let light = { rate = 10_000.; outstanding = 0; stride = 1; max_rate = 20_000. }

let saturate =
  { rate = 0.; outstanding = 1024; stride = 16; max_rate = 1_500_000. }

type run =
  config:Worksteal.Shard_service.config ->
  on_push:(tid:int -> ns:float -> Deque.Policy.push_outcome -> unit) ->
  on_pop:(tid:int -> ns:float -> int Deque.Policy.pop_outcome -> unit) ->
  measure:(unit -> unit) ->
  Worksteal.Shard_service.report

let service_trial (run : run) sv ~seed ~warmup ~window ~traced ~spans_file
    ~ledger =
  let config =
    {
      Worksteal.Shard_service.default with
      shards = 4;
      producers = 1;
      consumers = 1;
      capacity = 4096;
      full = Deque.Policy.Reject;
      rate = sv.rate;
      deadline = None;
      admission = false;
      sup = { Worksteal.Supervisor.default with silence_after = 0. };
      seed;
    }
  in
  let ids = int_of_float (sv.max_rate *. (warmup +. window +. 1.)) in
  let slots = (ids / sv.stride) + 1 in
  let push_start = Array.make slots 0 and push_end = Array.make slots 0 in
  let pop_end = Array.make slots 0 and pop_ns = Array.make slots 0 in
  let seen = Bytes.make ids '\000' in
  let pad = Dcas.Padding.make_atomic in
  let sent = pad 0 and served = pad 0 and empties = pad 0 in
  let refused = pad 0 and duplicates = pad 0 and unchecked = pad 0 in
  let pop_timeouts = pad 0 and stall_ns = pad 0 in
  let first_push = pad (-1) in
  let sent_ok = ref 0 in
  let sampled v = v land Trace.sample_mask = 0 in
  (* producer domain *)
  let on_push ~tid:_ ~ns out =
    let stop = now () in
    let n = Atomic.get sent in
    let start = stop - int_of_float ns in
    if n = 0 then Atomic.set first_push start;
    (match out with
    | `Okay -> incr sent_ok
    | `Full | `Timeout -> Atomic.incr refused);
    if n mod sv.stride = 0 && n / sv.stride < slots then begin
      push_start.(n / sv.stride) <- start;
      push_end.(n / sv.stride) <- (if out = `Okay then stop else -1)
    end;
    if traced then
      Trace.adopt ~name:Trace.sharded_push ~start ~stop ~kind:Trace.push_half
        ~key:n ~sampled:(sampled n) ~miss:(out <> `Okay);
    Atomic.set sent (n + 1);
    if sv.outstanding > 0 && !sent_ok - Atomic.get served >= sv.outstanding then begin
      let t = now () in
      while !sent_ok - Atomic.get served >= sv.outstanding do
        Domain.cpu_relax ()
      done;
      ignore (Atomic.fetch_and_add stall_ns (now () - t))
    end
  in
  (* consumer domain *)
  let on_pop ~tid:_ ~ns out =
    let stop = now () in
    match out with
    | `Value v ->
        if v < ids then
          if Bytes.get seen v = '\001' then Atomic.incr duplicates
          else Bytes.set seen v '\001'
        else Atomic.incr unchecked;
        if v mod sv.stride = 0 && v / sv.stride < slots then begin
          pop_end.(v / sv.stride) <- stop;
          pop_ns.(v / sv.stride) <- int_of_float ns
        end;
        if traced then
          Trace.adopt ~name:Trace.sharded_pop ~start:(stop - int_of_float ns) ~stop
            ~kind:Trace.pop_half ~key:v ~sampled:(sampled v) ~miss:false;
        Atomic.incr served
    | `Empty ->
        let e = Atomic.fetch_and_add empties 1 in
        if traced then
          Trace.adopt ~name:Trace.sharded_pop ~start:(stop - int_of_float ns) ~stop
            ~kind:Trace.idle_tree ~key:e ~sampled:(sampled e) ~miss:true
    | `Timeout -> Atomic.incr pop_timeouts
  in
  (* throwaway runs that only time the set-up: service creation and
     worker spawn, up to the start of the first push *)
  let unconserved = ref 0 in
  let setup_once () =
    let first = Atomic.make (-1) and t = now () in
    let r =
      run ~config
        ~on_push:(fun ~tid:_ ~ns _ ->
          if Atomic.get first < 0 then Atomic.set first (now () - int_of_float ns))
        ~on_pop:(fun ~tid:_ ~ns:_ _ -> ())
        ~measure:(fun () -> while Atomic.get first < 0 do Unix.sleepf 0.0001 done)
    in
    if not (Worksteal.Shard_service.conserved r) then incr unconserved;
    seconds (Atomic.get first - t)
  in
  let times = List.init (setups - 1) (fun _ -> setup_once ()) in
  let t_call = now () in
  let w = ref None and t_stop = ref 0 in
  let measure () =
    while Atomic.get first_push < 0 do Unix.sleepf 0.0001 done;
    Unix.sleepf warmup;
    let counters () =
      ( Atomic.get sent, Atomic.get served, Atomic.get empties,
        Atomic.get refused, Atomic.get stall_ns )
    in
    let s0 = snap () in
    let c0 = counters () in
    Atomic.set Trace.active traced;
    Unix.sleepf window;
    Atomic.set Trace.active false;
    let s1 = snap () in
    let c1 = counters () in
    w := Some (s0, s1, c0, c1);
    t_stop := now ()
  in
  Trace.auto_flush := false;
  let r = run ~config ~on_push ~on_pop ~measure in
  let drain_s = seconds (now () - !t_stop) in
  let setup_s = median_setup (seconds (Atomic.get first_push - t_call) :: times) in
  let ( s0,
        s1,
        (sent0, served0, empty0, refused0, stall0),
        (sent1, served1, empty1, refused1, stall1) ) =
    Option.get !w
  in
  (* outputs *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if !unconserved > 0 then violate "%d set-up runs not conserved" !unconserved;
  let open Worksteal.Shard_service in
  let sent = Atomic.get sent and served = Atomic.get served in
  let refused = Atomic.get refused in
  if not (conserved r) then
    violate "not conserved: spawned %d executed %d reconciled %d shed %d leftover %d"
      r.spawned r.executed r.reconciled (shed r) r.leftover;
  List.iter
    (fun (what, n) -> if n <> 0 then violate "fault-free run saw %s = %d" what n)
    [
      ("killed", r.killed);
      ("replacements", r.replacements);
      ("adoptions", r.adoptions);
      ("presumed_dead", r.presumed_dead);
      ("zombies_fenced", r.zombies_fenced);
      ("duplicate ids", Atomic.get duplicates);
      ("ids beyond the check", Atomic.get unchecked);
      ("pop timeouts", Atomic.get pop_timeouts);
    ];
  if served + refused <> sent then
    violate "served %d + refused %d <> sent %d" served refused sent;
  if r.executed <> served then
    violate "service executed %d but the hooks saw %d served" r.executed served;
  (* requests whose intended start falls in the window *)
  let intended i =
    if sv.rate > 0. then
      push_start.(0) + int_of_float (float_of_int (i * sv.stride) *. 1e9 /. sv.rate)
    else push_start.(i)
  in
  let lat = ref [] and lag = ref [] and queue = ref [] in
  let push_ns = ref [] and pop_ns' = ref [] in
  for i = 0 to min slots ((sent + sv.stride - 1) / sv.stride) - 1 do
    let t = intended i in
    if t >= s0.t && t < s1.t && push_end.(i) >= 0 then begin
      lat := (pop_end.(i) - t) :: !lat;
      lag := (push_start.(i) - t) :: !lag;
      queue := (pop_end.(i) - push_end.(i)) :: !queue;
      push_ns := (push_end.(i) - push_start.(i)) :: !push_ns;
      pop_ns' := pop_ns.(i) :: !pop_ns'
    end
  done;
  let samples = Array.of_list !lat in
  let lat = quantiles samples and lag = quantiles (Array.of_list !lag) in
  let queue = quantiles (Array.of_list !queue) in
  let push_ns = quantiles (Array.of_list !push_ns) in
  let pop_ns = quantiles (Array.of_list !pop_ns') in
  let window_s = seconds (s1.t - s0.t) in
  let units = served1 - served0 in
  let words, counts = window_metrics s0 s1 ~units in
  let lost = sent - refused - served in
  let failed = refused + shed r + r.reconciled + max 0 lost + Atomic.get duplicates in
  let popped = Array.map float_of_int r.per_shard_popped in
  let mean = Array.fold_left ( +. ) 0. popped /. float_of_int (Array.length popped) in
  let sent_share =
    if sv.rate > 0. then float_of_int (sent1 - sent0) /. (sv.rate *. window_s)
    else 1. -. (seconds (stall1 - stall0) /. window_s)
  in
  let traced_layer, traced_extra =
    if traced then
      let request v =
        let i = v / sv.stride in
        if v mod sv.stride = 0 && i < slots && push_end.(i) >= 0 && pop_end.(i) > 0
        then
          let t = intended i in
          if t >= s0.t && t < s1.t then Some (t, pop_end.(i)) else None
        else None
      in
      trace_metrics ~units
        (Trace.summarise ~requests:request ~spans_file ~t0:s0.t ())
    else ([], [])
  in
  let ledger_layer, ledger_extra = if traced then ledger () else ([], []) in
  {
    attempted = sent;
    failed = failed + List.length !violations;
    violations = List.rev !violations;
    e2e =
      [
        ("ops_per_s", float_of_int units /. window_s);
        ("p50_us", lat 0.5 /. 1e3);
        ("p90_us", lat 0.9 /. 1e3);
        ("words_per_op", words);
        ("setup_s", setup_s);
      ];
    layer =
      counts @ traced_layer @ ledger_layer
      @ [
          ("sharded.push_ns.p50", push_ns 0.5);
          ("sharded.push_ns.p99", push_ns 0.99);
          ("sharded.pop_ns.p50", pop_ns 0.5);
          ("sharded.pop_ns.p99", pop_ns 0.99);
          ("sharded.pop_hit_share", share units (units + empty1 - empty0));
          ("sharded.full_share", share (refused1 - refused0) (sent1 - sent0));
          ("sharded.imbalance", ratio (Array.fold_left Float.max 0. popped) mean);
          ("service.gen_lag_us.p50", lag 0.5 /. 1e3);
          ("service.gen_lag_us.p99", lag 0.99 /. 1e3);
          ("service.queue_us.p50", queue 0.5 /. 1e3);
          ("service.queue_us.p99", queue 0.99 /. 1e3);
          ("service.empty_scans_per_req", share (empty1 - empty0) units);
          ("service.sent_share", sent_share);
          ("service.failed_share", share failed sent);
          ("service.drain_s", drain_s);
        ];
    extra = tail samples lat @ traced_extra @ ledger_extra;
  }

(* --- entry point --- *)

let run ~workload ~seed ~warmup ~window ~traced ~spans_file =
  let ledger (module L : LEDGER) () =
    let calls = max 20_000 (min 200_000 (int_of_float (window *. 50_000.))) in
    L.run (op_stream ~seed both_ends) ~calls
  in
  let closed (module D : Deque.Deque_intf.S) ledger =
    let module C = Closed_loop (D) in
    C.trial ~seed ~warmup ~window ~traced ~spans_file ~ledger
  in
  let service run sv =
    service_trial run sv ~seed ~warmup ~window ~traced ~spans_file
      ~ledger:(ledger (module Array_ledger))
  in
  (* [measure] runs on this domain while traffic flows; its return stops
     the producer *)
  let plain ~config ~on_push ~on_pop ~measure =
    Worksteal.Shard_service.Array_service.run ~config ~on_push ~on_pop
      ~driver:measure ~duration:0. ()
  in
  let timed ~config ~on_push ~on_pop ~measure =
    Timed.Array_service.run ~config ~on_push ~on_pop ~driver:measure
      ~duration:0. ()
  in
  match workload with
  | "list-both-ends" ->
      closed
        (if traced then (module Timed.List_deque)
         else (module Deque.List_deque.Lockfree))
        (ledger (module List_ledger))
  | "service-light" -> service (if traced then timed else plain) light
  | "service-saturate" -> service (if traced then timed else plain) saturate
  | w -> invalid_arg ("unknown workload " ^ w)
