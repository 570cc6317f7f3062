(* Operation mixes for the throughput experiments: a weighted choice
   among the four deque operations, drawn from a per-thread
   deterministic RNG.  The named mixes are the ones the experiment
   index in DESIGN.md refers to. *)

type kind = Push_right | Push_left | Pop_right | Pop_left

type mix = {
  w_push_right : int;
  w_push_left : int;
  w_pop_right : int;
  w_pop_left : int;
}

let balanced = { w_push_right = 1; w_push_left = 1; w_pop_right = 1; w_pop_left = 1 }
let push_heavy = { w_push_right = 3; w_push_left = 3; w_pop_right = 1; w_pop_left = 1 }
let pop_heavy = { w_push_right = 1; w_push_left = 1; w_pop_right = 3; w_pop_left = 3 }
let right_only = { w_push_right = 1; w_push_left = 0; w_pop_right = 1; w_pop_left = 0 }
let left_only = { w_push_right = 0; w_push_left = 1; w_pop_right = 0; w_pop_left = 1 }

(* The stack- and queue-shaped mixes the introduction motivates: a
   deque subsumes LIFO (same end) and FIFO (opposite ends). *)
let lifo_right = right_only
let fifo = { w_push_right = 1; w_push_left = 0; w_pop_right = 0; w_pop_left = 1 }

let total m = m.w_push_right + m.w_push_left + m.w_pop_right + m.w_pop_left

let draw m rng =
  let t = total m in
  if t <= 0 then invalid_arg "Workload.draw: empty mix";
  let x = Dcas.Splitmix.int rng ~bound:t in
  if x < m.w_push_right then Push_right
  else if x < m.w_push_right + m.w_push_left then Push_left
  else if x < m.w_push_right + m.w_push_left + m.w_pop_right then Pop_right
  else Pop_left

(* Apply one drawn operation to a deque through its handle; returns
   true if the operation "succeeded" (push okay / pop got a value),
   which the harness can count for effective throughput.  Allocates
   only what the deque operation allocates. *)
let apply (h : int Deque.Deque_intf.handle) m rng v =
  match draw m rng with
  | Push_right -> ( match h.push_right v with `Okay -> true | `Full -> false)
  | Push_left -> ( match h.push_left v with `Okay -> true | `Full -> false)
  | Pop_right -> ( match h.pop_right () with `Value _ -> true | `Empty -> false)
  | Pop_left -> ( match h.pop_left () with `Value _ -> true | `Empty -> false)
