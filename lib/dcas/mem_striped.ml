(* Blocking DCAS emulation over striped locks: locations hash (by their
   allocation id) onto a fixed array of mutexes, and a DCAS acquires the
   two stripes in index order (one acquisition when both locations share
   a stripe).  Compared with Mem_lock this removes the global
   serialization point — operations on the two ends of a deque touch
   disjoint stripes with high probability — while remaining a blocking
   emulation.  It sits between Mem_lock and Mem_lockfree in experiment
   E12's comparison. *)

let stripe_count = 64
let stripes = Array.init stripe_count (fun _ -> Mutex.create ())

type 'a loc = { id : int; mutable content : 'a; equal : 'a -> 'a -> bool }

let name = "striped-lock"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters

let make ?(equal = ( = )) v = { id = Id.next (); content = v; equal }
let make_padded ?equal v = Padding.copy_as_padded (make ?equal v)

let stripe_of loc = loc.id mod stripe_count

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  let m = stripes.(stripe_of loc) in
  Mutex.lock m;
  let v = loc.content in
  Mutex.unlock m;
  v

let set loc v =
  Opstats.incr_write (Opstats.bucket counters);
  let m = stripes.(stripe_of loc) in
  Mutex.lock m;
  loc.content <- v;
  Mutex.unlock m

let set_private loc v = loc.content <- v

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_striped.dcas: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  let s1 = stripe_of l1 and s2 = stripe_of l2 in
  let lo = min s1 s2 and hi = max s1 s2 in
  Mutex.lock stripes.(lo);
  if hi <> lo then Mutex.lock stripes.(hi);
  let v1 = l1.content and v2 = l2.content in
  let ok = l1.equal v1 o1 && l2.equal v2 o2 in
  if ok then begin
    l1.content <- n1;
    l2.content <- n2
  end;
  if hi <> lo then Mutex.unlock stripes.(hi);
  Mutex.unlock stripes.(lo);
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
    invalid_arg "Mem_striped.casn: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  (* lock the distinct stripes in index order to avoid deadlock *)
  let stripe_ids =
    List.sort_uniq compare (List.map (fun (Cass (l, _, _)) -> stripe_of l) cs)
  in
  List.iter (fun i -> Mutex.lock stripes.(i)) stripe_ids;
  let ok = List.for_all (fun (Cass (l, o, _)) -> l.equal l.content o) cs in
  if ok then List.iter (fun (Cass (l, _, n)) -> l.content <- n) cs;
  List.iter (fun i -> Mutex.unlock stripes.(i)) (List.rev stripe_ids);
  if ok then Opstats.incr_success b;
  ok
