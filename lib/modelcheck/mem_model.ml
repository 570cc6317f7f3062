(* The model checker's memory: a MEMORY implementation whose every
   operation performs a [Yield] effect before executing atomically.
   The explorer installs a handler that captures the continuation at
   each yield, giving it full control over the interleaving of shared
   memory accesses — the granularity at which the paper's proofs reason
   (each transition is a read, a write, or a DCAS; Section 5).

   Locations are plain mutable cells: the explorer runs everything in
   one domain, and an operation's body executes without preemption
   between two yields, which models precisely the atomic machine
   operations of Section 2. *)

type _ Effect.t += Yield : unit Effect.t

type 'a loc = { id : int; mutable content : 'a; equal : 'a -> 'a -> bool }

let name = "model"

(* Single-domain counters suffice here. *)
let reads = ref 0
let writes = ref 0
let dcas_attempts = ref 0
let dcas_successes = ref 0

let stats () : Dcas.Memory_intf.stats =
  {
    Dcas.Memory_intf.empty_stats with
    reads = !reads;
    writes = !writes;
    dcas_attempts = !dcas_attempts;
    dcas_successes = !dcas_successes;
  }

let reset_stats () =
  reads := 0;
  writes := 0;
  dcas_attempts := 0;
  dcas_successes := 0

let make ?(equal = ( = )) v = { id = Dcas.Id.next (); content = v; equal }

(* Single-domain exploration: placement cannot matter, and aliasing
   [make] keeps location ids and schedule counts identical whichever
   constructor the algorithm under test picked. *)
let make_padded = make

let get loc =
  Effect.perform Yield;
  incr reads;
  loc.content

let set loc v =
  Effect.perform Yield;
  incr writes;
  loc.content <- v

(* Unpublished location: not a scheduling point (paper footnote 7). *)
let set_private loc v = loc.content <- v

let dcas_strong l1 l2 o1 o2 n1 n2 =
  if l1.id = l2.id then invalid_arg "Mem_model.dcas: locations must differ";
  Effect.perform Yield;
  incr dcas_attempts;
  let v1 = l1.content and v2 = l2.content in
  let ok = l1.equal v1 o1 && l2.equal v2 o2 in
  if ok then begin
    l1.content <- n1;
    l2.content <- n2;
    incr dcas_successes
  end;
  if ok then Dcas.Memory_intf.Swapped else Dcas.Memory_intf.Saw (v1, v2)

let dcas l1 l2 o1 o2 n1 n2 =
  match dcas_strong l1 l2 o1 o2 n1 n2 with
  | Dcas.Memory_intf.Swapped -> true
  | Dcas.Memory_intf.Saw _ -> false

(* Run [f] with yields transparently continued: for code the explorer
   itself needs to run outside any scheduled thread (building the
   structure under test, evaluating invariants between steps). *)
let unmonitored f =
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

type cass = Cass : 'a loc * 'a * 'a -> cass

let casn cs =
  let ids = List.map (fun (Cass (l, _, _)) -> l.id) cs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Mem_model.casn: locations must differ";
  Effect.perform Yield;
  incr dcas_attempts;
  let ok = List.for_all (fun (Cass (l, o, _)) -> l.equal l.content o) cs in
  if ok then begin
    List.iter (fun (Cass (l, _, n)) -> l.content <- n) cs;
    incr dcas_successes
  end;
  ok
