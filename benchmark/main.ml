(* The repository benchmark.

     bash benchmark/run.sh                       # every workload, 5 trials each
     bash benchmark/run.sh --workload service-light --seed 7 --seconds 15
     bash benchmark/run.sh --trace 1             # adds a traced trial per workload

   Each trial runs in a fresh process (this executable with [--trial]);
   the parent checks its outputs, prints every metric with its unit
   and bound, and ends with one JSON line.  [--seconds] is the time
   measured per workload, split evenly over the trials; each trial
   also warms up first.  Exit status: 0 when every output checked
   out, 1 on a correctness failure or a failed trial, 2 on bad usage. *)

module J = Harness.Json

let workload = ref "all"
let seed = ref 1
let seconds = ref 15.
let trace = ref 0
let trials = ref 5
let out = ref "benchmark/out"
let trial = ref false
let window = ref 1.
let warmup = ref 0.

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME one workload, or all (default)");
    ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S measured seconds per workload (default 15)" );
    ( "--trace",
      Arg.Set_int trace,
      "0|1 add a traced trial and print per-layer metrics" );
    ("--trials", Arg.Set_int trials, "N untraced trials per workload (default 5)");
    ("--out", Arg.Set_string out, "DIR where span files go (default benchmark/out)");
    ("--trial", Arg.Set trial, " run one trial in this process (internal)");
    ("--window", Arg.Set_float window, "S the trial's window (internal)");
    ("--warmup", Arg.Set_float warmup, "S the trial's warm-up (internal)");
  ]

let usage () =
  Arg.usage specs "main.exe [options]";
  exit 2

let obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

(* --- child side --- *)

let run_trial () =
  let r =
    Trial.run ~workload:!workload ~seed:!seed ~warmup:!warmup ~window:!window
      ~traced:(!trace = 1)
      ~spans_file:(Filename.concat !out ("spans-" ^ !workload ^ ".jsonl"))
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("attempted", J.Int r.Trial.attempted);
            ("failed", J.Int r.failed);
            ("violations", J.List (List.map (fun s -> J.String s) r.violations));
            ("e2e", obj r.e2e);
            ("layer", obj r.layer);
            ("extra", obj r.extra);
          ]))

(* --- parent side --- *)

type child = {
  attempted : int;
  failed : int;
  violations : string list;
  e2e : (string * float) list;
  layer : (string * float) list;
  extra : (string * float) list;
}

(* Run one trial in a fresh process and parse its last line; the
   process is killed if it outlives [timeout] seconds. *)
let spawn_trial ~args ~timeout =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec read () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ ->
          let n = Unix.read rd chunk 0 (Bytes.length chunk) in
          if n = 0 then true
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            read ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then Unix.kill pid Sys.sigkill;
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  match (finished, status, List.rev lines) with
  | false, _, _ -> Error (Printf.sprintf "killed after %.0f s" timeout)
  | true, Unix.WEXITED 0, last :: _ -> (
      let assoc field j =
        match J.member field j with
        | J.Obj kvs ->
            List.map
              (fun (k, v) -> (k, Option.value ~default:nan (J.number_value v)))
              kvs
        | _ -> []
      in
      let int field j =
        Option.fold ~none:(-1) ~some:int_of_float (J.number_value (J.member field j))
      in
      match J.of_string last with
      | j ->
          Ok
            {
              attempted = int "attempted" j;
              failed = int "failed" j;
              violations =
                List.filter_map J.string_value
                  (J.to_list (J.member "violations" j));
              e2e = assoc "e2e" j;
              layer = assoc "layer" j;
              extra = assoc "extra" j;
            }
      | exception J.Parse_error e -> Error ("unreadable trial output: " ^ e))
  | true, Unix.WEXITED n, _ -> Error (Printf.sprintf "trial exited with %d" n)
  | true, (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      Error (Printf.sprintf "trial stopped by signal %d" n)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let values name cs = List.filter_map (fun c -> List.assoc_opt name c) cs

type summary = {
  name : string;
  correct : bool;
  s_attempted : int;
  s_failed : int;
  e2e : (Decl.metric * float list) list;  (* each trial's value *)
  layer : (Decl.metric * float) list;
  tails : (string * float) list list;  (* untraced trials' p99 *)
  extras : (string * float) list;  (* traced trial *)
}

let run_workload w =
  let n = max 1 !trials in
  let win = !seconds /. float_of_int n in
  let nominal = if String.starts_with ~prefix:"service" w then 1.0 else 0.5 in
  let warm = Float.min nominal (win /. 2.) in
  let args ~k ~traced =
    [
      "--trial"; "--workload"; w;
      "--seed"; string_of_int (!seed + (k * 1_000_003));
      "--window"; Printf.sprintf "%.6f" win;
      "--warmup"; Printf.sprintf "%.6f" warm;
      "--trace"; (if traced then "1" else "0");
      "--out"; !out;
    ]
  in
  let timeout = warm +. win +. 30. in
  let failures = ref [] in
  let fail k e = failures := Printf.sprintf "%s trial %d: %s" w k e :: !failures in
  let trial k ~traced =
    if !failures <> [] then None
    else
      match spawn_trial ~args:(args ~k ~traced) ~timeout with
      | Ok c ->
          List.iter (fun v -> fail k v) c.violations;
          Some c
      | Error e ->
          fail k e;
          None
  in
  let plain = List.filter_map Fun.id (List.init n (fun k -> trial k ~traced:false)) in
  let traced = if !trace = 1 then trial n ~traced:true else None in
  let all = plain @ Option.to_list traced in
  let plain_e2e = List.map (fun (c : child) -> c.e2e) plain in
  let e2e =
    List.map (fun (m : Decl.metric) -> (m, values m.name plain_e2e)) Decl.end_to_end
  in
  let overhead =
    match traced with
    | None -> []
    | Some t ->
        let ratio name =
          Option.value ~default:nan (List.assoc_opt name t.e2e)
          /. median (values name plain_e2e)
        in
        (* the open-loop workload's throughput is its offered rate, so
           its overhead shows in latency instead *)
        [
          ( "trace.overhead_share",
            if w = "service-light" then ratio "p50_us" -. 1.
            else 1. -. ratio "ops_per_s" );
        ]
  in
  let layer =
    List.map
      (fun (m : Decl.metric) ->
        let from_plain = values m.name (List.map (fun (c : child) -> c.layer) plain) in
        let v =
          if from_plain <> [] then median from_plain
          else
            match List.assoc_opt m.name overhead with
            | Some v -> v
            | None -> (
                match traced with
                | Some t -> Option.value ~default:0. (List.assoc_opt m.name t.layer)
                | None -> 0.)
        in
        (m, v))
      Decl.per_layer
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 all in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  ( {
      name = w;
      correct = !failures = [] && List.length plain = n;
      s_attempted = sum (fun (c : child) -> c.attempted);
      s_failed = sum (fun (c : child) -> c.failed) + List.length !failures;
      e2e;
      layer;
      tails = List.map (fun (c : child) -> c.extra) plain;
      extras = (match traced with Some t -> t.extra | None -> []);
    },
    win )

(* --- printing --- *)

let print_summary s ~win =
  Printf.printf "\n== %s: %d trial(s) x %.2f s window, seed %d\n" s.name
    (max 1 !trials) win !seed;
  Printf.printf "  %-14s %14s %14s %14s  %-6s %s\n" "metric" "median" "min" "max"
    "unit" "bound";
  List.iter
    (fun ((m : Decl.metric), vs) ->
      let lo = List.fold_left Float.min infinity vs
      and hi = List.fold_left Float.max neg_infinity vs in
      Printf.printf "  %-14s %14.6g %14.6g %14.6g  %-6s %.0f%%\n" m.name
        (median vs) lo hi m.unit (m.bound *. 100.))
    s.e2e;
  Printf.printf "  %-14s %14.6g  (not gated; median of %.0f samples per trial)\n"
    "p99_us"
    (median (values "p99_us" s.tails))
    (median (values "latency_samples" s.tails));
  let extra k = Option.value ~default:nan (List.assoc_opt k s.extras) in
  if !trace = 1 then begin
    Printf.printf "  per-layer (%s):\n" s.name;
    List.iter
      (fun ((m : Decl.metric), v) ->
        Printf.printf "    %-30s %14.6g %s\n" m.name v m.unit)
      s.layer;
    Printf.printf "  self time inside %.0f sampled trees, share of root time:\n"
      (extra "trees");
    Array.iter
      (fun l -> Printf.printf "    %-8s %8.4f\n" l (extra ("self_share." ^ l)))
      Trace.layers;
    Printf.printf "  ledger, one domain:\n    %-8s %10s %10s\n" "stack" "ns/op"
      "words/op";
    List.iter
      (fun st ->
        let g k = extra (Printf.sprintf "ledger.%s.%s" st k) in
        Printf.printf "    %-8s %10.1f %10.2f\n" st (g "ns_per_op") (g "words_per_op"))
      [ "deque"; "policy"; "sharded" ]
  end;
  flush stdout

(* A harness reads exactly [value] and [unit]; the every-workload
   summary also states the declaration, which the smoke test holds
   against BENCHMARK.json. *)
let metric_json ~declared (m : Decl.metric) v =
  let decl =
    if not declared then []
    else
      ( "better",
        J.String (match m.better with Decl.Higher -> "higher" | Lower -> "lower") )
      :: (if m.bound > 0. then [ ("bound", J.Float m.bound) ] else [])
  in
  (m.name, J.Obj ([ ("value", J.Float v); ("unit", J.String m.unit) ] @ decl))

let metrics_json ~declared s =
  if !trace = 1 then J.Obj (List.map (fun (m, v) -> metric_json ~declared m v) s.layer)
  else J.Obj (List.map (fun (m, vs) -> metric_json ~declared m (median vs)) s.e2e)

(* Every workload's metrics, and each trial's end-to-end values. *)
let workload_json s =
  let trials (m : Decl.metric) vs =
    (m.name, J.List (List.map (fun v -> J.Float v) vs))
  in
  ( s.name,
    J.Obj
      [
        ("metrics", metrics_json ~declared:true s);
        ("trials", J.Obj (List.map (fun (m, vs) -> trials m vs) s.e2e));
      ] )

let () =
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) ""
   with Arg.Bad e | Arg.Help e -> prerr_string e; usage ());
  if !trial then run_trial ()
  else begin
    let selected =
      if !workload = "all" then Decl.workloads
      else if List.mem !workload Decl.workloads then [ !workload ]
      else begin
        Printf.eprintf "unknown workload %S (have: %s)\n" !workload
          (String.concat ", " Decl.workloads);
        exit 2
      end
    in
    if !trace <> 0 && !trace <> 1 then usage ();
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    if !trace = 1 then mkdir_p !out;
    let results =
      List.map
        (fun w ->
          let s, win = run_workload w in
          print_summary s ~win;
          s)
        selected
    in
    let correct = List.for_all (fun s -> s.correct) results in
    let total f = List.fold_left (fun a s -> a + f s) 0 results in
    let head =
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int (total (fun s -> s.s_attempted)));
        ("failed", J.Int (total (fun s -> s.s_failed)));
      ]
    in
    let line =
      match results with
      | [ s ] when !workload <> "all" ->
          J.Obj (head @ [ ("metrics", metrics_json ~declared:false s) ])
      | _ -> J.Obj (head @ [ ("workloads", J.Obj (List.map workload_json results)) ])
    in
    print_endline (J.to_string line);
    exit (if correct then 0 else 1)
  end
