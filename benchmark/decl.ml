(* The benchmark's declared workloads and metrics.  BENCHMARK.json at
   the repository root states the same names; the smoke test fails
   when the two drift apart. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (* share of the median it may worsen by; 0 = none *)
}

let workloads =
  [ "list-both-ends"; "service-light"; "service-saturate" ]

let e2e name unit better bound = { name; unit; better; bound }
let lo name unit = { name; unit; better = Lower; bound = 0. }
let hi name unit = { name; unit; better = Higher; bound = 0. }

let end_to_end =
  [
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "p50_us" "us" Lower 0.25;
    e2e "p90_us" "us" Lower 0.25;
    e2e "words_per_op" "words" Lower 0.15;
    e2e "setup_s" "s" Lower 0.25;
  ]

let per_layer =
  [
    lo "dcas.attempts_per_op" "count";
    hi "dcas.success_share" "share";
    lo "dcas.fastfail_share" "share";
    lo "dcas.reads_per_op" "count";
    lo "dcas.call_ns.p50" "ns";
    lo "dcas.call_ns.p99" "ns";
    lo "dcas.self_share" "share";
    lo "dcas.descriptors_per_op" "count";
    lo "dcas.value_allocs_per_op" "count";
    lo "dcas.dcas2_share" "share";
    lo "deque.push_ns.p50" "ns";
    lo "deque.push_ns.p99" "ns";
    lo "deque.pop_ns.p50" "ns";
    lo "deque.pop_ns.p99" "ns";
    lo "deque.self_ns.mean" "ns";
    lo "deque.empty_share" "share";
    lo "deque.full_share" "share";
    lo "deque.calls_per_req" "count";
    lo "policy.extra_ns_per_op" "ns";
    lo "policy.extra_words_per_op" "words";
    lo "sharded.extra_ns_per_op" "ns";
    lo "sharded.extra_words_per_op" "words";
    lo "sharded.push_ns.p50" "ns";
    lo "sharded.push_ns.p99" "ns";
    lo "sharded.pop_ns.p50" "ns";
    lo "sharded.pop_ns.p99" "ns";
    hi "sharded.pop_hit_share" "share";
    lo "sharded.full_share" "share";
    lo "sharded.imbalance" "ratio";
    lo "sharded.self_share" "share";
    lo "service.gen_lag_us.p50" "us";
    lo "service.gen_lag_us.p99" "us";
    lo "service.queue_us.p50" "us";
    lo "service.queue_us.p99" "us";
    lo "service.empty_scans_per_req" "count";
    hi "service.sent_share" "share";
    lo "service.failed_share" "share";
    lo "service.drain_s" "s";
    lo "runtime.minor_gcs_per_s" "1/s";
    lo "runtime.major_gcs_per_s" "1/s";
    lo "runtime.top_heap_mb" "MB";
    lo "trace.overhead_share" "share";
  ]
