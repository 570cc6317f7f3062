(* Module type of the array-based deque algorithm (shared between
   array_deque.ml and its interface).  See array_deque.mli for the
   documented version. *)

module type ALGORITHM = sig
  type 'a t

  val name : string
  val make : ?hints:bool -> length:int -> unit -> 'a t
  val create : capacity:int -> unit -> 'a t
  val push_right : 'a t -> 'a -> Deque_intf.push_result
  val push_left : 'a t -> 'a -> Deque_intf.push_result
  val pop_right : 'a t -> 'a Deque_intf.pop_result
  val pop_left : 'a t -> 'a Deque_intf.pop_result
  val unsafe_to_list : 'a t -> 'a list
  val check_invariant : 'a t -> (unit, string) result
end
