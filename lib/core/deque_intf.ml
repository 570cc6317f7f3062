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

(* An implementation that can also be inspected at quiescence: its
   contents left to right, and its executable representation
   invariant. *)
module type CHECKED = sig
  include S

  val unsafe_to_list : 'a t -> 'a list
  val check_invariant : 'a t -> (unit, string) result
end

(* One live instance as every harness drives it: the four operations
   applied to the instance once, so a call through the handle costs
   what the operation itself costs, plus the quiescent views the
   implementation offers.  The instance's type is hidden, so one
   harness runs over every implementation and memory model. *)
type 'a handle = {
  name : string;
  push_right : 'a -> push_result;
  push_left : 'a -> push_result;
  pop_right : unit -> 'a pop_result;
  pop_left : unit -> 'a pop_result;
  contents : (unit -> 'a list) option;  (* quiescent only *)
  invariant : (unit -> (unit, string) result) option;  (* quiescent only *)
}

(* The handle of an instance built by hand, e.g. with a family's own
   [make] arguments. *)
module Wrap (D : S) = struct
  let handle d =
    {
      name = D.name;
      push_right = D.push_right d;
      push_left = D.push_left d;
      pop_right = (fun () -> D.pop_right d);
      pop_left = (fun () -> D.pop_left d);
      contents = None;
      invariant = None;
    }
end

module Wrap_checked (D : CHECKED) = struct
  let handle d =
    let module W = Wrap (D) in
    {
      (W.handle d) with
      contents = Some (fun () -> D.unsafe_to_list d);
      invariant = Some (fun () -> D.check_invariant d);
    }
end

(* A fresh instance's handle. *)
let create (module D : S) ~capacity =
  let module W = Wrap (D) in
  W.handle (D.create ~capacity ())

let create_checked (module D : CHECKED) ~capacity =
  let module W = Wrap_checked (D) in
  W.handle (D.create ~capacity ())

(* One operation of the spec vocabulary, as recorded in histories. *)
let apply h (op : 'a Spec.Op.op) : 'a Spec.Op.res =
  match op with
  | Spec.Op.Push_right v -> (
      match h.push_right v with `Okay -> Spec.Op.Okay | `Full -> Spec.Op.Full)
  | Spec.Op.Push_left v -> (
      match h.push_left v with `Okay -> Spec.Op.Okay | `Full -> Spec.Op.Full)
  | Spec.Op.Pop_right -> (
      match h.pop_right () with
      | `Value v -> Spec.Op.Got v
      | `Empty -> Spec.Op.Empty)
  | Spec.Op.Pop_left -> (
      match h.pop_left () with
      | `Value v -> Spec.Op.Got v
      | `Empty -> Spec.Op.Empty)
