(* The concurrent deque interface of Section 2.2.  Push returns
   [`Okay]/[`Full], pop returns [`Value v]/[`Empty]; bounded deques
   report [`Full] at capacity, unbounded ones only when their (injected)
   allocator fails — the paper's footnote 3. *)

type push_result = [ `Okay | `Full ]
type 'a pop_result = [ `Value of 'a | `Empty ]

module type S = sig
  (** Uniform deque interface used by the test harness, the examples
      and the benchmarks, so that every implementation (the paper's
      two, the variants, and the baselines) is interchangeable. *)

  type 'a t

  val name : string
  (** Implementation name for test labels and benchmark tables. *)

  val create : capacity:int -> unit -> 'a t
  (** A fresh empty deque.  Bounded implementations can hold at most
      [capacity] items; unbounded ones ignore it. *)

  val push_right : 'a t -> 'a -> push_result
  val push_left : 'a t -> 'a -> push_result
  val pop_right : 'a t -> 'a pop_result
  val pop_left : 'a t -> 'a pop_result
end

(* Conversions to the spec vocabulary, used when recording histories. *)
let res_of_push : push_result -> 'a Spec.Op.res = function
  | `Okay -> Spec.Op.Okay
  | `Full -> Spec.Op.Full

let res_of_pop : 'a pop_result -> 'a Spec.Op.res = function
  | `Value v -> Spec.Op.Got v
  | `Empty -> Spec.Op.Empty
