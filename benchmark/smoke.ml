(* Smoke test of the benchmark, run by [dune runtest]: every workload
   for 0.2 s, once plain and once traced, plus one single-workload run
   in the format a harness reads.  The outputs must name exactly the
   workloads and metrics that BENCHMARK.json declares, with its units,
   directions and bounds, and every correctness check must pass.

     smoke.exe MAIN_EXE BENCHMARK_JSON *)

module J = Harness.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let keys = function J.Obj kvs -> List.map fst kvs | _ -> []
let sorted l = List.sort compare l

let same ~what expected got =
  if sorted expected <> sorted got then
    fail "%s: expected [%s], got [%s]" what (String.concat " " (sorted expected))
      (String.concat " " (sorted got))

(* Run the benchmark, demand exit 0, and parse its last line. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited non-zero:\n%s" (String.concat " " args)
           (String.concat "\n" (List.rev !lines)));
  match !lines with
  | last :: _ -> J.of_string last
  | [] -> fail "%s printed nothing" (String.concat " " args)

let () =
  let exe =
    let e = Sys.argv.(1) in
    if Filename.is_implicit e then Filename.concat Filename.current_dir_name e else e
  in
  let decl = J.of_string (read_file Sys.argv.(2)) in
  let declared key =
    List.map
      (fun m -> (Option.get (J.string_value (J.member "name" m)), m))
      (J.to_list (J.member key decl))
  in
  let workloads = List.map fst (declared "workloads") in
  let out = Filename.temp_dir "benchmark-smoke" "" in
  let common = [ "--seconds"; "0.2"; "--trials"; "1"; "--out"; out ] in
  (* [full]: the entry must also restate the declared direction and
     bound *)
  let check_metrics ~what ~full metrics key =
    let expected = declared key in
    same ~what (List.map fst expected) (keys metrics);
    List.iter
      (fun (name, d) ->
        let m = J.member name metrics in
        if J.number_value (J.member "value" m) = None then
          fail "%s: value of %s" what name;
        List.iter
          (fun field ->
            if J.member field m <> J.member field d then
              fail "%s: %s of %s differs from BENCHMARK.json" what field name)
          ("unit" :: (if full then [ "better"; "bound" ] else [])))
      expected
  in
  let check_all ~trace key =
    let j = run exe (common @ [ "--trace"; trace ]) in
    if J.member "correct" j <> J.Bool true then fail "trace %s: not correct" trace;
    let per = J.member "workloads" j in
    same ~what:"workloads" workloads (keys per);
    List.iter
      (fun w ->
        check_metrics ~what:(w ^ " trace " ^ trace) ~full:true
          (J.member "metrics" (J.member w per)) key)
      workloads
  in
  check_all ~trace:"0" "end_to_end";
  check_all ~trace:"1" "per_layer";
  List.iter
    (fun w ->
      let f = Filename.concat out ("spans-" ^ w ^ ".jsonl") in
      if not (Sys.file_exists f) then fail "no span file for %s" w;
      Sys.remove f)
    workloads;
  Sys.rmdir out;
  let j = run exe ([ "--workload"; List.hd workloads; "--trace"; "0" ] @ common) in
  same ~what:"single-workload keys"
    [ "correct"; "attempted"; "failed"; "metrics" ]
    (keys j);
  check_metrics ~what:"single workload" ~full:false (J.member "metrics" j) "end_to_end";
  print_endline "benchmark smoke test: ok"
