(** Weighted operation mixes for the throughput experiments. *)

type kind = Push_right | Push_left | Pop_right | Pop_left

type mix = {
  w_push_right : int;
  w_push_left : int;
  w_pop_right : int;
  w_pop_left : int;
}

val balanced : mix
val push_heavy : mix
val pop_heavy : mix
val right_only : mix
val left_only : mix

val lifo_right : mix
(** Stack usage: push and pop on the same (right) end. *)

val fifo : mix
(** Queue usage: push right, pop left. *)

val draw : mix -> Dcas.Splitmix.t -> kind
(** @raise Invalid_argument on an all-zero mix. *)

val apply : int Deque.Deque_intf.handle -> mix -> Dcas.Splitmix.t -> int -> bool
(** Draw one operation and apply it to the handle's deque (pushing the
    given value); [true] if it succeeded (push okay / pop got a value).
    Allocates only what the deque operation allocates. *)
