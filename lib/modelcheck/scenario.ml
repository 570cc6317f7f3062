(* Declarative model-checking scenarios: a fixed script of deque
   operations per thread, a way to build a fresh instance of the
   structure under test (over Mem_model), and optional per-step checks.

   [prefill] pushes initial values from the right; [setup] then runs
   additional operations quiescently (single-threaded, before any
   exploration) so a test can steer the structure into an interesting
   state — e.g. popping both elements to leave two logically deleted
   nodes before exploring the contending physical deletions of
   Figure 16 — while keeping the explored window small enough to
   enumerate exhaustively.  The linearizability oracle starts from the
   abstract state reached after prefill and setup. *)

type instance = {
  apply : int Spec.Op.op -> int Spec.Op.res;
  invariant : (unit -> (unit, string) result) option;
      (* evaluated by the explorer after every shared-memory step; this
         is the executable RepInv obligation of Section 5 *)
}

type t = {
  name : string;
  capacity : int option;  (* oracle capacity for linearizability *)
  initial : int list;  (* oracle start state: prefill after setup *)
  threads : int Spec.Op.op list array;
  instantiate : unit -> instance;
}

(* --- Ready-made instances over the model memory --- *)

module Array_model = Deque.Array_deque.Make (Mem_model)
module List_model = Deque.List_deque.Make (Mem_model)
module List_dummy_model = Deque.List_deque_dummy.Make (Mem_model)
module List_casn_model = Deque.List_deque_casn.Make (Mem_model)
module Greenwald_v2_model = Baselines.Greenwald_v2.Make (Mem_model)
module Greenwald_v1_model = Baselines.Greenwald_v1.Make (Mem_model)
module Buggy_model = Buggy_deque.Make (Mem_model)

(* The list deque over a fault-injecting model memory: chaos sits
   between the algorithm and the yielding model cells, so the explorer
   still controls the interleaving while spurious DCAS failures and
   stalls are woven into each schedule. *)
module Chaos_model = Harness.Fault.Mem (Mem_model)
module List_chaos_model = Deque.List_deque.Make (Chaos_model)

(* The Sundell–Tsigas single-word-CAS deque over the model memory: the
   algorithm is a functor over St_deque.CAS, so the one-entry-casn shim
   puts a yield point at every shared read and CAS — the explorer and
   fuzzer drive the identical algorithm text that production runs on
   plain Atomic. *)
module St_model = Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Mem_model))
module St_chaos_model =
  Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Chaos_model))
module St_buggy_model =
  Baselines.St_deque.Make_buggy (Baselines.St_deque.Of_casn (Mem_model))

(* The abstract state after prefill and setup, for the oracle. *)
let oracle_initial ?capacity ~prefill ~setup () =
  let d0 = Spec.Seq_deque.of_list ?capacity prefill in
  let d1 =
    List.fold_left (fun d op -> fst (Spec.Seq_deque.apply d op)) d0 setup
  in
  Spec.Seq_deque.to_list d1

(* Shared scaffolding: [make_instance] builds a fresh structure, plays
   prefill and setup against it, and returns the instance record. *)
let build ~name ~capacity ~prefill ~setup ~threads ~make_instance =
  {
    name;
    capacity;
    initial = oracle_initial ?capacity ~prefill ~setup ();
    threads = Array.of_list threads;
    instantiate =
      (fun () ->
        let inst = make_instance () in
        List.iter
          (fun v ->
            match inst.apply (Spec.Op.Push_right v) with
            | Spec.Op.Okay -> ()
            | Spec.Op.Full | Spec.Op.Empty | Spec.Op.Got _ ->
                invalid_arg "Scenario: prefill exceeded capacity")
          prefill;
        List.iter (fun op -> ignore (inst.apply op)) setup;
        inst);
  }

(* A deque scenario: [handle ()] is a fresh instance, driven through
   its handle and checked with its invariant when it has one. *)
let deque ?(setup = []) ?capacity ~name ~prefill threads handle =
  build ~name ~capacity ~prefill ~setup ~threads ~make_instance:(fun () ->
      let h = handle () in
      { apply = Deque.Deque_intf.apply h; invariant = h.invariant })

module Array_checked = Deque.Deque_intf.Wrap_checked (Array_model)
module List_checked = Deque.Deque_intf.Wrap_checked (List_model)

let array_deque ?(hints = true) ?setup ~name ~length ~prefill threads =
  deque ?setup ~capacity:length ~name ~prefill threads (fun () ->
      Array_checked.handle (Array_model.make ~hints ~length ()))

let list_deque ?(recycle = false) ?setup ~name ~prefill threads =
  deque ?setup ~name ~prefill threads (fun () ->
      List_checked.handle (List_model.make ~recycle ()))

let unbounded ?setup ~name ~prefill threads (module D : Deque.Deque_intf.CHECKED)
    =
  deque ?setup ~name ~prefill threads (fun () ->
      Deque.Deque_intf.create_checked (module D) ~capacity:0)

let list_deque_dummy ?setup ~name ~prefill threads =
  unbounded ?setup ~name ~prefill threads (module List_dummy_model)

let list_deque_casn ?setup ~name ~prefill threads =
  unbounded ?setup ~name ~prefill threads (module List_casn_model)

let list_deque_buggy ?setup ~name ~prefill threads =
  deque ?setup ~name ~prefill threads (fun () ->
      Deque.Deque_intf.create (module Buggy_model) ~capacity:0)

(* Re-arming chaos per instance restarts the fault streams, so every
   schedule the explorer replays sees the same fault sequence for the
   same interleaving prefix — exploration stays sound. *)
let chaos ~fail_prob ~freeze_prob ~freeze_spins ~chaos_seed ?setup ~name
    ~prefill threads (module D : Deque.Deque_intf.CHECKED) =
  deque ?setup ~name ~prefill threads (fun () ->
      Harness.Chaos.configure ~fail_prob ~freeze_prob ~freeze_spins
        ~seed:chaos_seed ();
      Deque.Deque_intf.create_checked (module D) ~capacity:0)

let list_deque_chaos ?(fail_prob = 0.1) ?(freeze_prob = 0.) ?(freeze_spins = 8)
    ?(chaos_seed = 0xC0FFEE) ?setup ~name ~prefill threads =
  chaos ~fail_prob ~freeze_prob ~freeze_spins ~chaos_seed ?setup ~name ~prefill
    threads (module List_chaos_model)

let st_deque ?setup ~name ~prefill threads =
  unbounded ?setup ~name ~prefill threads (module St_model)

let st_deque_chaos ?(fail_prob = 0.1) ?(freeze_prob = 0.) ?(freeze_spins = 8)
    ?(chaos_seed = 0xC0FFEE) ?setup ~name ~prefill threads =
  chaos ~fail_prob ~freeze_prob ~freeze_spins ~chaos_seed ?setup ~name ~prefill
    threads (module St_chaos_model)

let st_deque_buggy ?setup ~name ~prefill threads =
  unbounded ?setup ~name ~prefill threads (module St_buggy_model)

(* Greenwald's deques have no executable invariant: the explorer checks
   their histories only. *)
let greenwald_v2 ?setup ~name ~length ~prefill threads =
  deque ?setup ~capacity:length ~name ~prefill threads (fun () ->
      Deque.Deque_intf.create (module Greenwald_v2_model) ~capacity:length)

(* The sharded service front end over model-memory array deques: K
   policy-wrapped shards behind affinity routing, cross-shard overflow
   and stealing (Core.Sharded, experiment E24).  The
   composite is NOT linearizable to a single deque — explore it with
   [check:`None] — so its obligations here are per-step:

   - every shard's array-deque representation invariant (Figure 18);
   - no value resident twice across the whole service (primaries and
     overflows), which a racing steal or adoption would violate by
     completing the push leg without the pop leg having committed;

   and end-to-end: [Explorer.check_crash] drains through the sharded
   pop (whose steal sweep reaches every shard, quarantined included)
   and checks exact multiset conservation around the victim's single
   in-flight operation.  Every steal holds one item in hand, the one
   it serves, as any pop does — the bound check_crash's crash-commit
   uncertainty accounts for.

   Pushes route by their own value (distinct values spread over the
   shards deterministically); pops route by key 0, so an empty home
   exercises the steal scan.  Pushing [adopt_token] is not a push at
   all: it quarantines the token's home shard, adopts (drains) it into
   the survivors and revives it — the control-plane action whose races
   against routing this scenario exists to explore.  It reports
   [Full], which every checker ignores.  With [fence_adoption:false]
   the script runs the planted zombie-adoption bug instead: the
   pre-fence, pre-limbo drain protocol (no quarantine, and an
   unplaceable park-back re-places round-robin forever instead of
   escaping to the limbo stash) — a racing push takes the slot the
   drain just freed, over-commits the bounded shards, and the spin
   becomes a liveness violation the explorer reports as a step-limit
   hit.  The fenced variant survives the same schedules: quarantine
   stops new routes, and the limbo escape absorbs the straggler that
   routed before it.  Pushing [shed_token] models E25's
   deadline shed: it pops (urgent end) through the token's route and
   DISCARDS the value, recording it in a shed log; the invariant then
   also demands that no shed value is still resident and none is shed
   twice — the conservation face of shedding, explored against steal
   and adoption races.  Scripts must use distinct non-token values or
   the no-duplicate obligation misfires. *)
module Sharded_model = Deque.Sharded.Make (Array_model)

let sharded ?(shards = 2) ?(capacity = 2) ?(adopt_token = min_int)
    ?(shed_token = min_int + 1) ?(fence_adoption = true) ~name ~prefill
    threads =
  if adopt_token = shed_token then
    invalid_arg "Scenario.sharded: adopt_token = shed_token";
  build ~name ~capacity:None ~prefill ~setup:[] ~threads
    ~make_instance:(fun () ->
      let t =
        Sharded_model.create ~full:Deque.Policy.Reject ~shards ~capacity ()
      in
      let sheds = ref [] in
      let res_of_push = function
        | `Okay -> Spec.Op.Okay
        | `Full | `Timeout -> Spec.Op.Full
      in
      let res_of_pop = function
        | `Value v -> Spec.Op.Got v
        | `Empty | `Timeout -> Spec.Op.Empty
      in
      let apply (op : int Spec.Op.op) : int Spec.Op.res =
        match op with
        | Spec.Op.(Push_right v | Push_left v) when v = adopt_token ->
            let shard = Sharded_model.shard_of t ~key:v in
            if fence_adoption then begin
              Sharded_model.quarantine t ~shard;
              ignore (Sharded_model.adopt t ~shard);
              Sharded_model.revive t ~shard
            end
            else begin
              (* planted bug: the pre-fence, pre-limbo adoption — no
                 quarantine, so routing keeps targeting the shard
                 mid-drain, and an unplaceable park-back re-places
                 round-robin forever instead of escaping to the limbo
                 stash.  A racing push that takes the freed slot
                 over-commits the shards and livelocks it — caught as
                 a step-limit violation. *)
              let sh i = Sharded_model.shard t (i mod shards) in
              let rec spin_place v i =
                match Sharded_model.P.push (sh i) ~side:`Right v with
                | `Okay -> ()
                | `Full | `Timeout -> spin_place v (i + 1)
              in
              let rec drain_loop () =
                match Sharded_model.P.pop (sh shard) ~side:`Left with
                | `Empty | `Timeout -> ()
                | `Value v ->
                    let rec survivors i =
                      if i >= shards - 1 then
                        (* full sweep: park back on the source — whose
                           freed slot a racing push may have taken *)
                        match
                          Sharded_model.P.push (sh shard) ~side:`Left v
                        with
                        | `Okay -> ()
                        | `Full | `Timeout -> spin_place v (shard + 1)
                      else
                        match
                          Sharded_model.P.push
                            (sh (shard + 1 + i))
                            ~side:`Right v
                        with
                        | `Okay -> drain_loop ()
                        | `Full | `Timeout -> survivors (i + 1)
                    in
                    survivors 0
              in
              drain_loop ()
            end;
            Spec.Op.Full
        | Spec.Op.(Push_right v | Push_left v) when v = shed_token ->
            (* a deadline shed: pop-and-discard through the token's
               route, as a consumer shedding an expired item — the
               value leaves the system without being served *)
            (match Sharded_model.pop ~urgent:true t ~key:shed_token with
            | `Value v' ->
                sheds := v' :: !sheds;
                Spec.Op.Got v'
            | `Empty | `Timeout -> Spec.Op.Empty)
        | Spec.Op.Push_right v -> res_of_push (Sharded_model.push t ~key:v v)
        | Spec.Op.Push_left v ->
            res_of_push (Sharded_model.push ~urgent:true t ~key:v v)
        | Spec.Op.Pop_right -> res_of_pop (Sharded_model.pop t ~key:0)
        | Spec.Op.Pop_left ->
            res_of_pop (Sharded_model.pop ~urgent:true t ~key:0)
      in
      let resident i =
        Array_model.unsafe_to_list
          (Sharded_model.P.primary (Sharded_model.shard t i))
        @ Sharded_model.P.overflow_list (Sharded_model.shard t i)
      in
      let rec dup = function
        | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
        | _ -> None
      in
      let invariant () =
        let rec shard_inv i =
          if i >= shards then Ok ()
          else
            match
              Array_model.check_invariant
                (Sharded_model.P.primary (Sharded_model.shard t i))
            with
            | Ok () -> shard_inv (i + 1)
            | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
        in
        match shard_inv 0 with
        | Error _ as e -> e
        | Ok () -> (
            let all =
              List.concat (List.init shards resident)
              @ Sharded_model.limbo_list t
              |> List.sort compare
            in
            match dup all with
            | Some v ->
                Error (Printf.sprintf "value %d resident in two places" v)
            | None -> (
                match dup (List.sort compare !sheds) with
                | Some v -> Error (Printf.sprintf "value %d shed twice" v)
                | None -> (
                    match
                      List.find_opt (fun v -> List.mem v all) !sheds
                    with
                    | Some v ->
                        Error
                          (Printf.sprintf
                             "value %d both shed and still resident" v)
                    | None -> Ok ())))
      in
      { apply; invariant = Some invariant })

let greenwald_v1 ?setup ~name ~length ~prefill threads =
  deque ?setup ~capacity:length ~name ~prefill threads (fun () ->
      Deque.Deque_intf.create (module Greenwald_v1_model) ~capacity:length)
