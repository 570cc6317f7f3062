(* Blocking software DCAS behind a single global mutex — the paper's
   citation [2] ("a blocking software emulation", Agesen & Cartwright's
   platform-independent DCAS).  Every operation, including reads, takes
   the lock: a read that bypassed the lock could observe the window
   between the two stores of a DCAS, which would break the atomicity
   Figure 1 specifies.  This model is the simplest correct baseline and
   the reference point for experiment E12. *)

type 'a loc = { id : int; mutable content : 'a; equal : 'a -> 'a -> bool }

let name = "global-lock"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters
let mutex = Mutex.create ()

let make ?(equal = ( = )) v = { id = Id.next (); content = v; equal }
let make_padded ?equal v = Padding.copy_as_padded (make ?equal v)

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  Mutex.lock mutex;
  let v = loc.content in
  Mutex.unlock mutex;
  v

let set loc v =
  Opstats.incr_write (Opstats.bucket counters);
  Mutex.lock mutex;
  loc.content <- v;
  Mutex.unlock mutex

let set_private loc v = loc.content <- v

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_lock.dcas: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  Mutex.lock mutex;
  let v1 = l1.content and v2 = l2.content in
  let ok = l1.equal v1 o1 && l2.equal v2 o2 in
  if ok then begin
    l1.content <- n1;
    l2.content <- n2
  end;
  Mutex.unlock mutex;
  if ok then Opstats.incr_success b;
  if ok then Memory_intf.Swapped else Memory_intf.Saw (v1, v2)

let dcas l1 l2 o1 o2 n1 n2 =
  match dcas_strong l1 l2 o1 o2 n1 n2 with
  | Memory_intf.Swapped -> true
  | Memory_intf.Saw _ -> false

type cass = Cass : 'a loc * 'a * 'a -> cass

let casn cs =
  let ids = List.map (fun (Cass (l, _, _)) -> l.id) cs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Mem_lock.casn: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  Mutex.lock mutex;
  let ok = List.for_all (fun (Cass (l, o, _)) -> l.equal l.content o) cs in
  if ok then List.iter (fun (Cass (l, _, n)) -> l.content <- n) cs;
  Mutex.unlock mutex;
  if ok then Opstats.incr_success b;
  ok
