(* Unsynchronized sequential memory model: plain mutable cells with no
   atomicity machinery at all.  Only valid when a single thread touches
   the structure; used for sequential unit tests (where it makes
   failures independent of the DCAS emulations) and as the no-overhead
   floor in the primitive-cost experiment E4. *)

type 'a loc = { id : int; mutable content : 'a; equal : 'a -> 'a -> bool }

let name = "sequential"
let counters = Opstats.create ()
let stats () = Opstats.snapshot counters
let reset_stats () = Opstats.reset counters

let make ?(equal = ( = )) v = { id = Id.next (); content = v; equal }

(* Single-threaded by contract: placement cannot matter. *)
let make_padded = make

let get loc =
  Opstats.incr_read (Opstats.bucket counters);
  loc.content

let set loc v =
  Opstats.incr_write (Opstats.bucket counters);
  loc.content <- v

let set_private loc v = loc.content <- v

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_seq.dcas: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  let v1 = l1.content and v2 = l2.content in
  let ok = l1.equal v1 o1 && l2.equal v2 o2 in
  if ok then begin
    l1.content <- n1;
    l2.content <- n2;
    Opstats.incr_success b
  end;
  (ok, v1, v2)

let dcas l1 l2 o1 o2 n1 n2 =
  let ok, _, _ = dcas_strong l1 l2 o1 o2 n1 n2 in
  ok

type cass = Cass : 'a loc * 'a * 'a -> cass

let casn cs =
  let ids = List.map (fun (Cass (l, _, _)) -> l.id) cs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Mem_seq.casn: locations must differ";
  let b = Opstats.bucket counters in
  Opstats.incr_attempt b;
  let ok = List.for_all (fun (Cass (l, o, _)) -> l.equal l.content o) cs in
  if ok then begin
    List.iter (fun (Cass (l, _, n)) -> l.content <- n) cs;
    Opstats.incr_success b
  end;
  ok
