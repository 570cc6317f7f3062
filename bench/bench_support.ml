(* Shared machinery for the experiment tables: a bechamel wrapper that
   turns named thunks into ns/op estimates, deque implementations as
   first-class modules driven through their handles (so each experiment
   ranges over implementations uniformly), and a multi-domain
   throughput driver built on Harness.Runner. *)

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

(* --- Implementations under measurement --- *)

(* Each run drives a fresh instance of the module through its
   {!Deque.Deque_intf.handle}. *)
type factory = (module Deque.Deque_intf.S)

let name_of (module D : Deque.Deque_intf.S) = D.name

(* A fresh handle, prefilled alternating ends so the content straddles
   the array's start point. *)
let fresh (f : factory) ~capacity ~prefill =
  let h = Deque.Deque_intf.create f ~capacity in
  for i = 1 to prefill do
    match if i mod 2 = 0 then h.push_right i else h.push_left i with
    | `Okay -> ()
    | `Full -> invalid_arg "prefill exceeded capacity"
  done;
  h

(* --- Multi-domain throughput --- *)

(* Total completed operations per second under [mix], with [threads]
   domains hammering one instance for [duration] seconds. *)
let mixed_throughput ~threads ~duration ~mix f ~capacity ~prefill =
  let h = fresh f ~capacity ~prefill in
  let r =
    Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
        ignore (Harness.Workload.apply h mix rng tid))
  in
  Harness.Runner.throughput r

(* Dedicated-ends throughput: even threads work the right end, odd
   threads the left end (half pushes, half pops on their own end).
   This is the experiment E5 workload: with truly independent ends the
   two sides do not disturb each other. *)
let two_end_throughput ~threads ~duration f ~capacity ~prefill =
  let h = fresh f ~capacity ~prefill in
  let r =
    Harness.Runner.run ~threads ~duration (fun ~tid ~rng ->
        let push = Dcas.Splitmix.bool rng in
        if tid mod 2 = 0 then
          if push then ignore (h.push_right tid) else ignore (h.pop_right ())
        else if push then ignore (h.push_left tid)
        else ignore (h.pop_left ()))
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
