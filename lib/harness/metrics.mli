(** The wall clock and per-thread fairness.  Latency
    distributions go to {!Dcas.Histogram}, recorded in batches
    ([Unix.gettimeofday] is too coarse for one sub-microsecond
    operation); bechamel covers the single-operation regime
    (experiment E4). *)

val now : unit -> float

module Starvation : sig
  (** Per-thread fairness of a multi-domain run: lock-freedom
      guarantees system-wide progress, not per-thread fairness, so
      starvation is measured (E19/E20), not assumed. *)

  type t = {
    min_ops : int;
    max_ops : int;
    mean_ops : float;
    imbalance : float;  (** (max - min) / mean; 0 = perfectly fair *)
  }

  val of_counts : int array -> t
  (** From per-thread operation counts (e.g. {!Runner.result}'s
      [per_thread]).

      @raise Invalid_argument on an empty array. *)

  val pp : Format.formatter -> t -> unit
end
