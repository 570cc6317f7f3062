(* Measurement helpers for the macro benchmarks: the wall clock and
   per-thread fairness.  Latency distributions go to
   Dcas.Histogram, recorded in batches (time a group of operations,
   divide) because [Unix.gettimeofday]'s microsecond resolution is too
   coarse for a single sub-microsecond deque operation; bechamel covers
   the single-operation regime in experiment E4. *)

let now = Unix.gettimeofday

(* Per-thread fairness: how unevenly did operations distribute over the
   workers?  A lock-free structure guarantees system-wide progress, not
   per-thread fairness, so starvation must be measured, not assumed —
   the resilience policies (Core.Policy) bound it with deadlines, and
   the stress CLI prints it next to throughput.  [imbalance] is
   (max - min) / mean: 0 for a perfectly fair run, ~n when one of n
   threads did all the work while another did none. *)
module Starvation = struct
  type t = {
    min_ops : int;
    max_ops : int;
    mean_ops : float;
    imbalance : float;
  }

  let of_counts per_thread =
    if Array.length per_thread = 0 then
      invalid_arg "Starvation.of_counts: empty";
    let min_ops = Array.fold_left min max_int per_thread in
    let max_ops = Array.fold_left max min_int per_thread in
    let total = Array.fold_left ( + ) 0 per_thread in
    let mean_ops = float_of_int total /. float_of_int (Array.length per_thread) in
    let imbalance =
      if mean_ops = 0. then 0.
      else float_of_int (max_ops - min_ops) /. mean_ops
    in
    { min_ops; max_ops; mean_ops; imbalance }

  let pp ppf s =
    Format.fprintf ppf "per-thread min=%d max=%d mean=%.0f imbalance=%.2f"
      s.min_ops s.max_ops s.mean_ops s.imbalance
end
