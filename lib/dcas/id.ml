(* Process-wide unique small integers, used to identify shared locations
   (for same-location checks) and to impose the total acquisition order
   that the lock-free and striped memory models rely on for progress.

   Ids need only be unique and totally ordered; nothing depends on the
   order in which they were handed out.  So each domain reserves a block
   of [block] ids with one [fetch_and_add] on the shared counter and
   hands them out privately: a structure that allocates locations on its
   hot path (every list-deque push makes three) does not turn the
   counter's cache line into the one word all domains contend on. *)

let block = 1024
let counter = Atomic.make 0

type range = { mutable next : int; mutable limit : int }

let range = Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let next () =
  let r = Domain.DLS.get range in
  if r.next = r.limit then begin
    let base = Atomic.fetch_and_add counter block in
    r.next <- base;
    r.limit <- base + block
  end;
  let id = r.next in
  r.next <- id + 1;
  id
