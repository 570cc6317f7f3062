(* Span-recording wrappers over the library's public interfaces: one
   span per DCAS call (the deques never call [casn]) and per deque
   call.  Instantiating a deque over [Timed_mem], and the service over
   [Timed_deque], traces the calls the library makes internally
   without changing any of it. *)

module Timed_mem (M : Dcas.Memory_intf.MEMORY) :
  Dcas.Memory_intf.MEMORY with type 'a loc = 'a M.loc = struct
  include M

  let dcas l1 l2 o1 o2 n1 n2 =
    Trace.enter Trace.dcas;
    let r = M.dcas l1 l2 o1 o2 n1 n2 in
    Trace.leave ();
    r

  let dcas_strong l1 l2 o1 o2 n1 n2 =
    Trace.enter Trace.dcas_strong;
    let r = M.dcas_strong l1 l2 o1 o2 n1 n2 in
    Trace.leave ();
    r
end

module Timed_deque (D : Deque.Deque_intf.S) :
  Deque.Deque_intf.S with type 'a t = 'a D.t = struct
  include D

  let push f q v =
    Trace.enter Trace.deque_push;
    match f q v with
    | `Okay ->
        Trace.leave ();
        `Okay
    | `Full ->
        Trace.leave_miss ();
        `Full

  let pop f q =
    Trace.enter Trace.deque_pop;
    match f q with
    | `Value _ as r ->
        Trace.leave ();
        r
    | `Empty ->
        Trace.leave_miss ();
        `Empty

  let push_right q v = push D.push_right q v
  let push_left q v = push D.push_left q v
  let pop_right q = pop D.pop_right q
  let pop_left q = pop D.pop_left q
end

module Mem = Timed_mem (Dcas.Mem_lockfree)
module List_deque = Timed_deque (Deque.List_deque.Make (Mem))
module Array_deque = Timed_deque (Deque.Array_deque.Make (Mem))
module Array_service = Worksteal.Shard_service.Make (Array_deque)
