(* Shared machinery for the experiment tables: a bechamel wrapper that
   turns named thunks into ns/op estimates, closure handles over every
   deque implementation (so each experiment ranges over implementations
   uniformly), and a multi-domain throughput driver built on
   Harness.Runner. *)

open Bechamel
open Toolkit

(* --- Micro-benchmarks (single-thread ns/op) via bechamel --- *)

let ns_per_op ?(quota = 0.5) (cases : (string * (unit -> unit)) list) :
    (string * float) list =
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun (name, _) ->
      let est =
        match Hashtbl.find_opt results name with
        | Some t -> (
            match Analyze.OLS.estimates t with
            | Some (e :: _) -> e
            | Some [] | None -> Float.nan)
        | None -> Float.nan
      in
      (name, est))
    cases

(* --- Uniform closure handles over implementations --- *)

type handle = {
  h_name : string;
  push_right : int -> bool;  (* true = okay *)
  push_left : int -> bool;
  pop_right : unit -> bool;  (* true = got a value *)
  pop_left : unit -> bool;
}

type factory = { f_name : string; make : capacity:int -> prefill:int -> handle }

let prefill_handle h ~prefill =
  (* alternate ends so the content straddles the array's start point *)
  for i = 1 to prefill do
    let ok = if i mod 2 = 0 then h.push_right i else h.push_left i in
    if not ok then invalid_arg "prefill exceeded capacity"
  done;
  h

let of_array (module A : Deque.Array_deque.ALGORITHM) ?hints () : factory =
  let base_name =
    match hints with
    | Some false -> A.name ^ "(no-hints)"
    | Some true | None -> A.name
  in
  {
    f_name = base_name;
    make =
      (fun ~capacity ~prefill ->
        let d = A.make ?hints ~length:capacity () in
        prefill_handle ~prefill
          {
            h_name = base_name;
            push_right = (fun v -> A.push_right d v = `Okay);
            push_left = (fun v -> A.push_left d v = `Okay);
            pop_right = (fun () -> A.pop_right d <> `Empty);
            pop_left = (fun () -> A.pop_left d <> `Empty);
          });
  }

let of_list (module L : Deque.List_deque.ALGORITHM) : factory =
  {
    f_name = L.name;
    make =
      (fun ~capacity:_ ~prefill ->
        let d = L.make () in
        prefill_handle ~prefill
          {
            h_name = L.name;
            push_right = (fun v -> L.push_right d v = `Okay);
            push_left = (fun v -> L.push_left d v = `Okay);
            pop_right = (fun () -> L.pop_right d <> `Empty);
            pop_left = (fun () -> L.pop_left d <> `Empty);
          });
  }

let of_list_dummy (module L : Deque.List_deque_dummy.ALGORITHM) : factory =
  {
    f_name = L.name;
    make =
      (fun ~capacity:_ ~prefill ->
        let d = L.make () in
        prefill_handle ~prefill
          {
            h_name = L.name;
            push_right = (fun v -> L.push_right d v = `Okay);
            push_left = (fun v -> L.push_left d v = `Okay);
            pop_right = (fun () -> L.pop_right d <> `Empty);
            pop_left = (fun () -> L.pop_left d <> `Empty);
          });
  }

let of_general (module D : Deque.Deque_intf.S) : factory =
  {
    f_name = D.name;
    make =
      (fun ~capacity ~prefill ->
        let d = D.create ~capacity () in
        prefill_handle ~prefill
          {
            h_name = D.name;
            push_right = (fun v -> D.push_right d v = `Okay);
            push_left = (fun v -> D.push_left d v = `Okay);
            pop_right = (fun () -> D.pop_right d <> `Empty);
            pop_left = (fun () -> D.pop_left d <> `Empty);
          });
  }

let of_greenwald_v1 (module G : Baselines.Greenwald_v1.ALGORITHM) : factory =
  {
    f_name = G.name;
    make =
      (fun ~capacity ~prefill ->
        let d = G.make ~length:capacity () in
        prefill_handle ~prefill
          {
            h_name = G.name;
            push_right = (fun v -> G.push_right d v = `Okay);
            push_left = (fun v -> G.push_left d v = `Okay);
            pop_right = (fun () -> G.pop_right d <> `Empty);
            pop_left = (fun () -> G.pop_left d <> `Empty);
          });
  }

(* --- Multi-domain throughput --- *)

(* Total completed operations per second under [mix], with [threads]
   domains hammering one instance for [duration] seconds. *)
let mixed_throughput ~threads ~duration ~mix (factory : factory) ~capacity
    ~prefill =
  let h = factory.make ~capacity ~prefill in
  let r =
    Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
        ignore
          (Harness.Workload.apply
             ~push_right:(fun v -> if h.push_right v then `Okay else `Full)
             ~push_left:(fun v -> if h.push_left v then `Okay else `Full)
             ~pop_right:(fun () -> if h.pop_right () then `Value 0 else `Empty)
             ~pop_left:(fun () -> if h.pop_left () then `Value 0 else `Empty)
             mix rng tid))
  in
  Harness.Runner.throughput r

(* Dedicated-ends throughput: even threads work the right end, odd
   threads the left end (half pushes, half pops on their own end).
   This is the experiment E5 workload: with truly independent ends the
   two sides do not disturb each other. *)
let two_end_throughput ~threads ~duration (factory : factory) ~capacity
    ~prefill =
  let h = factory.make ~capacity ~prefill in
  let r =
    Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
        let push = Dcas.Splitmix.bool rng in
        if tid mod 2 = 0 then
          ignore (if push then h.push_right tid else h.pop_right ())
        else ignore (if push then h.push_left tid else h.pop_left ()))
  in
  Harness.Runner.throughput r

let header title =
  Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.printf (fmt ^^ "\n")

(* --- Machine-readable output (--json) ---

   Experiments push structured rows here while printing their human
   tables; the driver drains the accumulator after each experiment and
   files the rows under that experiment's id in the output document.
   With no sink installed (no --json flag) emission is a no-op. *)

let json_enabled = ref false
let json_acc : Harness.Json.t list ref = ref []

let emit_json row = if !json_enabled then json_acc := row :: !json_acc

let drain_json () =
  let rows = List.rev !json_acc in
  json_acc := [];
  rows
