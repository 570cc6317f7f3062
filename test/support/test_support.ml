(* Shared machinery for testing deque implementations: sequential
   equivalence against the Section 2.2 oracle, qcheck operation
   generators, multi-domain stress with conservation checking, and
   history recording + linearizability checking on real domains.

   Every implementation is driven through {!Deque.Deque_intf.handle}:
   an [impl] makes a fresh handle per run, so the same machinery runs
   over every algorithm and memory model.  A handle's quiescent views
   (contents, invariant) are checked whenever the implementation
   offers them. *)

open Spec

(* An implementation under test. *)
type impl = {
  impl_name : string;
  bounded : bool;  (* does capacity bind (array) or not (list)? *)
  fresh : capacity:int -> int Deque.Deque_intf.handle;
}

(* An impl over [create]: no quiescent views. *)
let of_module (module D : Deque.Deque_intf.S) ~bounded =
  { impl_name = D.name; bounded; fresh = Deque.Deque_intf.create (module D) }

(* An impl over [create], checking contents and invariant. *)
let checked (module D : Deque.Deque_intf.CHECKED) ~bounded =
  {
    impl_name = D.name;
    bounded;
    fresh = Deque.Deque_intf.create_checked (module D);
  }

let apply = Deque.Deque_intf.apply

(* --- Sequential equivalence --- *)

(* Run [ops] single-threadedly against both the implementation and the
   oracle; every response must agree, and the implementation's
   quiescent contents (when inspectable) must match the oracle's. *)
let sequential_vs_oracle impl ~capacity ops =
  let h = impl.fresh ~capacity in
  let oracle =
    Seq_deque.make ?capacity:(if impl.bounded then Some capacity else None) ()
  in
  let rec go oracle i = function
    | [] -> (
        match h.contents with
        | None -> Ok ()
        | Some contents ->
            let got = contents () and expect = Seq_deque.to_list oracle in
            if got = expect then Ok ()
            else
              Error
                (Printf.sprintf "final contents [%s], oracle [%s]"
                   (String.concat ";" (List.map string_of_int got))
                   (String.concat ";" (List.map string_of_int expect))))
    | op :: rest -> (
        let got = apply h op in
        let oracle', expect = Seq_deque.apply oracle op in
        if not (Op.equal_res Int.equal got expect) then
          Error
            (Format.asprintf "op %d (%a): implementation %a, oracle %a" i
               (Op.pp_op Format.pp_print_int)
               op
               (Op.pp_res Format.pp_print_int)
               got
               (Op.pp_res Format.pp_print_int)
               expect)
        else
          match h.invariant with
          | Some check when i mod 7 = 0 -> (
              match check () with
              | Ok () -> go oracle' (i + 1) rest
              | Error e -> Error (Printf.sprintf "op %d: invariant: %s" i e))
          | Some _ | None -> go oracle' (i + 1) rest)
  in
  go oracle 0 ops

(* --- Operation generators --- *)

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (3, map (fun v -> Op.Push_right v) (int_bound 999));
      (3, map (fun v -> Op.Push_left v) (int_bound 999));
      (2, return Op.Pop_right);
      (2, return Op.Pop_left);
    ]

let ops_gen ~max_len = QCheck2.Gen.(list_size (0 -- max_len) op_gen)

let print_ops ops =
  ops
  |> List.map (fun op -> Format.asprintf "%a" (Op.pp_op Format.pp_print_int) op)
  |> String.concat "; "

(* The standard qcheck test every implementation runs. *)
let qcheck_sequential ?(count = 200) ?(capacity = 8) impl =
  QCheck2.Test.make
    ~name:(impl.impl_name ^ ": random ops agree with oracle")
    ~count ~print:print_ops (ops_gen ~max_len:300) (fun ops ->
      match sequential_vs_oracle impl ~capacity ops with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

(* --- Test tiers --- *)

(* [dune runtest] runs the fast tier only; setting DCAS_SLOW_TESTS=1
   (any value other than "", "0" or "false") unlocks the multi-domain
   stress tier.  Gated cases report as SKIP rather than silently
   vanishing, so the fast tier still shows what it did not run. *)
let slow_enabled =
  match Sys.getenv_opt "DCAS_SLOW_TESTS" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

let tiered name speed f =
  Alcotest.test_case name speed (fun () ->
      if slow_enabled then f () else Alcotest.skip ())

(* Minor words per call of [f]: the slope over 10 000 calls (10 030
   calls in all), since [Gc.minor_words] boxes its own result. *)
let words_per_call f =
  let delta n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Gc.minor_words () -. before
  in
  ignore (delta 10);
  (delta 10_010 -. delta 10) /. 10_000.

(* Re-raise with the run's seed on stderr, so a failing randomized
   stress run can be replayed with DCAS_STRESS_SEED=<seed>. *)
let with_seed_report ~seed f () =
  try f ()
  with e ->
    Printf.eprintf "\n*** replay this run with DCAS_STRESS_SEED=%d ***\n%!"
      seed;
    raise e

(* --- Multi-domain stress --- *)

(* Every pushed value is unique (tid, seq); after the run, the popped
   sets and the remainder must partition the pushed set.  Hash tables
   are per-thread so recording is race-free.

   [per_op ~tid ~i] runs on the worker before each operation — the hook
   for injecting adversity mid-run (arming {!Harness.Stall} requests,
   toggling chaos) without forking the conservation machinery.
   [watchdog] is passed through to the runner. *)
let stress_conservation ?seed ?watchdog ?(per_op = fun ~tid:_ ~i:_ -> ()) impl
    ~threads ~iters ~capacity () =
  let h = impl.fresh ~capacity in
  let popped : (int, unit) Hashtbl.t array =
    Array.init threads (fun _ -> Hashtbl.create 1024)
  in
  let pushed : (int, unit) Hashtbl.t array =
    Array.init threads (fun _ -> Hashtbl.create 1024)
  in
  let encode tid seq = (tid * 10_000_000) + seq in
  let _elapsed =
    Harness.Runner.run_fixed ?seed ?watchdog ~threads ~iters
      (fun ~tid ~rng ~i ->
        per_op ~tid ~i;
        match Dcas.Splitmix.int rng ~bound:4 with
        | 0 ->
            if apply h (Op.Push_right (encode tid i)) = Op.Okay then
              Hashtbl.replace pushed.(tid) (encode tid i) ()
        | 1 ->
            if apply h (Op.Push_left (encode tid i)) = Op.Okay then
              Hashtbl.replace pushed.(tid) (encode tid i) ()
        | 2 -> (
            match apply h Op.Pop_right with
            | Op.Got v -> Hashtbl.replace popped.(tid) v ()
            | Op.Empty -> ()
            | Op.Okay | Op.Full -> assert false)
        | _ -> (
            match apply h Op.Pop_left with
            | Op.Got v -> Hashtbl.replace popped.(tid) v ()
            | Op.Empty -> ()
            | Op.Okay | Op.Full -> assert false))
  in
  (match h.invariant with
  | Some check -> (
      match check () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "post-stress invariant: %s" e)
  | None -> ());
  let remaining = match h.contents with Some f -> f () | None -> [] in
  let all_pushed = Hashtbl.create 4096 in
  Array.iter
    (fun tbl -> Hashtbl.iter (fun v () -> Hashtbl.replace all_pushed v ()) tbl)
    pushed;
  let all_popped = Hashtbl.create 4096 in
  Array.iter
    (fun tbl ->
      Hashtbl.iter
        (fun v () ->
          if Hashtbl.mem all_popped v then
            Alcotest.failf "value %d popped twice" v;
          if not (Hashtbl.mem all_pushed v) then
            Alcotest.failf "value %d popped but never pushed" v;
          Hashtbl.replace all_popped v ())
        tbl)
    popped;
  List.iter
    (fun v ->
      if Hashtbl.mem all_popped v then
        Alcotest.failf "value %d both popped and still present" v;
      if not (Hashtbl.mem all_pushed v) then
        Alcotest.failf "value %d present but never pushed" v)
    remaining;
  match h.contents with
  | Some _ ->
      Alcotest.(check int)
        "pushes = pops + remaining"
        (Hashtbl.length all_pushed)
        (Hashtbl.length all_popped + List.length remaining)
  | None ->
      Alcotest.(check bool)
        "pops <= pushes" true
        (Hashtbl.length all_popped <= Hashtbl.length all_pushed)

(* --- Two-domain conservation trials ---

   Two domains share one deque, and each draws its operations from its
   own [script].  The main domain runs bursts of 64 until [duration]
   seconds have passed; then it stops the peer, which runs bursts of 8,
   and joins it.  The invariant must then hold, and after a drain every
   pushed value (each one unique) must have come out exactly once.
   Returns one message per failing trial, so a caller can report the
   failure rate. *)

type script =
  Dcas.Splitmix.t -> [ `Push_right | `Push_left | `Pop_right | `Pop_left ]

(* The work-stealing shape: the owner pushes and pops the right end,
   the thief pops the left end, and the deque stays near empty, so
   both ends keep meeting. *)
let owner : script =
 fun rng ->
  if Dcas.Splitmix.int rng ~bound:2 = 0 then `Push_right else `Pop_right

let thief : script = fun _ -> `Pop_left

(* Uniform push and pop on both ends: both domains work each end. *)
let both_ends : script =
 fun rng ->
  match Dcas.Splitmix.int rng ~bound:4 with
  | 0 -> `Push_right
  | 1 -> `Push_left
  | 2 -> `Pop_right
  | _ -> `Pop_left

let conservation_failures impl ~capacity ~trials ~duration ~main ~peer =
  let trial seed =
    let h = impl.fresh ~capacity in
    (* worker [w] pushes 2k + w at its k-th successful push *)
    let burst w (script : script) rng n pushed got =
      let push op = if apply h op = Op.Okay then incr pushed in
      let pop op =
        match apply h op with
        | Op.Got v -> got := v :: !got
        | Op.Empty | Op.Okay | Op.Full -> ()
      in
      for _ = 1 to n do
        let v = (2 * (!pushed + 1)) + w in
        match script rng with
        | `Push_right -> push (Op.Push_right v)
        | `Push_left -> push (Op.Push_left v)
        | `Pop_right -> pop Op.Pop_right
        | `Pop_left -> pop Op.Pop_left
      done
    in
    let rng = Dcas.Splitmix.create ~seed in
    let peer_rng = Dcas.Splitmix.split rng in
    let stop = Atomic.make false in
    let peer_done =
      Domain.spawn (fun () ->
          let pushed = ref 0 and got = ref [] in
          while not (Atomic.get stop) do
            burst 1 peer peer_rng 8 pushed got
          done;
          (!pushed, !got))
    in
    let pushed = ref 0 and got = ref [] in
    let t_end = Unix.gettimeofday () +. duration in
    while Unix.gettimeofday () < t_end do
      burst 0 main rng 64 pushed got
    done;
    Atomic.set stop true;
    let peer_pushed, peer_got = Domain.join peer_done in
    let inv = match h.invariant with Some check -> check () | None -> Ok () in
    (* room for a refused push's value too, should a broken deque
       return it *)
    let seen = Array.make ((2 * max !pushed peer_pushed) + 4) 0 in
    let count v = seen.(v) <- seen.(v) + 1 in
    List.iter count !got;
    List.iter count peer_got;
    let rec drain () =
      match apply h Op.Pop_left with
      | Op.Got v ->
          count v;
          drain ()
      | Op.Empty | Op.Okay | Op.Full -> ()
    in
    drain ();
    let lost = ref 0 and twice = ref 0 in
    let check w n =
      for k = 1 to n do
        let v = (2 * k) + w in
        if seen.(v) = 0 then incr lost else if seen.(v) > 1 then incr twice
      done
    in
    check 0 !pushed;
    check 1 peer_pushed;
    if !lost > 0 || !twice > 0 then
      Some
        (Printf.sprintf "%d of %d items lost, %d popped twice" !lost
           (!pushed + peer_pushed) !twice)
    else match inv with Ok () -> None | Error e -> Some ("invariant: " ^ e)
  in
  List.filter_map trial (List.init trials (fun i -> i + 1))

(* --- Linearizability of real concurrent histories --- *)

let record_round impl ~threads ~ops_per_thread ~capacity ~seed =
  let h = impl.fresh ~capacity in
  let recorder = Spec.History.Recorder.create ~threads in
  let master = Dcas.Splitmix.create ~seed in
  let rngs = Array.init threads (fun _ -> Dcas.Splitmix.split master) in
  let started = Atomic.make 0 in
  let worker tid () =
    let rng = rngs.(tid) in
    Atomic.incr started;
    while Atomic.get started < threads do
      Domain.cpu_relax ()
    done;
    for i = 1 to ops_per_thread do
      let op =
        match Dcas.Splitmix.int rng ~bound:4 with
        | 0 -> Op.Push_right ((tid * 1000) + i)
        | 1 -> Op.Push_left ((tid * 1000) + i)
        | 2 -> Op.Pop_right
        | _ -> Op.Pop_left
      in
      ignore
        (Spec.History.Recorder.record recorder ~thread:tid op (fun () ->
             apply h op))
    done
  in
  let ds = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  let history = Spec.History.Recorder.history recorder in
  Spec.Linearizability.check_deque
    ?capacity:(if impl.bounded then Some capacity else None)
    history
  |> Result.map_error (fun () ->
         Format.asprintf "%a"
           (Spec.History.pp
              (Op.pp_op Format.pp_print_int)
              (Op.pp_res Format.pp_print_int))
           history)

let check_linearizable_rounds impl ~threads ~ops_per_thread ~capacity ~rounds =
  for seed = 1 to rounds do
    match record_round impl ~threads ~ops_per_thread ~capacity ~seed with
    | Ok _witness -> ()
    | Error history ->
        Alcotest.failf "round %d: history not linearizable:@.%s" seed history
  done
