(* Crash-fault tolerance (experiment E22): fail-stop deaths injected
   at instrumented memory points — including mid-CASN, with a published
   undecided descriptor — and the recovery machinery on top:

   - orphaned-descriptor helping: a domain killed mid-CASN on each of
     the four deques leaves exactly one undecided descriptor; the
     survivors complete it ([helped_orphans] counts it exactly once)
     and the deque stays coherent (fail-stop sibling of E19's freezes);

   - crash storms under the runner: probabilistic deaths, conservation
     within the crash-commit uncertainty (a victim's fatal operation
     may or may not have committed);

   - the scheduler's per-task exception barrier and join-all [run];

   - supervised scheduling: dead workers' deques adopted, pending
     reconciled, [Supervisor.conserved] on every terminating run, and a
     worker presumed dead while stalled mid-push fenced without losing
     a task. *)

module Crash = Harness.Crash
module C_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module C_array = Deque.Array_deque.Make_batched (C_mem)
module C_list = Deque.List_deque.Make (C_mem)
module C_dummy = Deque.List_deque_dummy.Make (C_mem)
module C_casn = Deque.List_deque_casn.Make (C_mem)

let fresh () =
  Harness.Fault.reset ();
  Dcas.Mem_lockfree.reset_stats ()

let lf_stats () = Dcas.Mem_lockfree.stats ()

(* --- orphaned-descriptor helping, one deque at a time ---

   The victim pushes [warm] items, signals, then keeps pushing until a
   targeted mid-CASN kill lands: it dies immediately after installing
   its own descriptor, before the status is decided.  The survivor
   (the main domain, never enrolled) then forces every orphan to a
   decision and drains the deque: the item count must be [completed]
   or [completed + 1] — the fatal push either committed or not, but
   nothing else may be lost or duplicated. *)
let orphan_case ~name ~push ~pop ~pop_drain () =
  fresh ();
  let warm = 5 in
  let pushed = Atomic.make 0 in
  let popped = Atomic.make 0 in
  let warmed = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        Harness.Fault.enroll ~tid:0;
        try
          let i = ref 0 in
          while true do
            incr i;
            (* mostly pushes, some pops: DCAS-shaped operations keep
               coming even if a bounded deque fills up, so the pending
               mid-CASN kill always finds a publish to land on *)
            if !i mod 3 <> 0 then begin
              if push !i then Atomic.incr pushed
            end
            else if pop () then Atomic.incr popped;
            if !i = warm then Atomic.set warmed true
          done
        with Crash.Died -> ())
  in
  while not (Atomic.get warmed) do
    Domain.cpu_relax ()
  done;
  Crash.kill ~mode:`Mid_casn ~tid:0 ();
  Domain.join victim;
  Alcotest.(check int) (name ^ ": one kill") 1 (Crash.kills ());
  Alcotest.(check int)
    (name ^ ": died mid-CASN with a published descriptor")
    1
    (Crash.mid_casn_kills ());
  Alcotest.(check int) (name ^ ": one orphan") 1 (Dcas.Mem_lockfree.orphans ());
  (* the survivor decides the orphan; idempotent on a second pass *)
  let seen = Dcas.Mem_lockfree.help_orphans () in
  Alcotest.(check int) (name ^ ": help_orphans sees it") 1 seen;
  ignore (Dcas.Mem_lockfree.help_orphans ());
  Alcotest.(check int)
    (name ^ ": helped exactly once")
    1
    (lf_stats ()).Dcas.Memory_intf.helped_orphans;
  (* conservation: the fatal operation — one push or pop — either
     committed or it did not; everything else must balance exactly *)
  let n = pop_drain () in
  let net = Atomic.get pushed - Atomic.get popped in
  if n < net - 1 || n > net + 1 then
    Alcotest.failf "%s: drained %d items, expected %d±1" name n net

let drain_left pop_left () =
  let rec go n = match pop_left () with `Value _ -> go (n + 1) | `Empty -> n in
  go 0

let committed_push = function `Okay -> true | `Full -> false
let committed_pop = function `Value _ -> true | `Empty -> false

let orphan_array () =
  let d = C_array.make ~length:64 () in
  orphan_case ~name:"array-deque"
    ~push:(fun v -> committed_push (C_array.push_right d v))
    ~pop:(fun () -> committed_pop (C_array.pop_left d))
    ~pop_drain:(drain_left (fun () -> C_array.pop_left d))
    ()

let orphan_list () =
  let d = C_list.make () in
  orphan_case ~name:"list-deque"
    ~push:(fun v -> committed_push (C_list.push_right d v))
    ~pop:(fun () -> committed_pop (C_list.pop_left d))
    ~pop_drain:(drain_left (fun () -> C_list.pop_left d))
    ()

let orphan_dummy () =
  let d = C_dummy.make () in
  orphan_case ~name:"list-deque-dummy"
    ~push:(fun v -> committed_push (C_dummy.push_right d v))
    ~pop:(fun () -> committed_pop (C_dummy.pop_left d))
    ~pop_drain:(drain_left (fun () -> C_dummy.pop_left d))
    ()

let orphan_casn () =
  let d = C_casn.make () in
  orphan_case ~name:"list-deque-casn"
    ~push:(fun v -> committed_push (C_casn.push_right d v))
    ~pop:(fun () -> committed_pop (C_casn.pop_left d))
    ~pop_drain:(drain_left (fun () -> C_casn.pop_left d))
    ()

(* --- probabilistic crash storm under the runner ---

   Several enrolled threads hammer one deque while seeded deaths land
   at instrumented points (some mid-CASN).  Afterwards: every death is
   accounted, every orphan is helped exactly once, and conservation
   holds within the crash-commit uncertainty — each death leaves at
   most one operation in doubt. *)
let storm () =
  fresh ();
  let threads = 4 in
  let d = C_array.make ~length:128 () in
  let pushes = Array.make threads 0 in
  let pops = Array.make threads 0 in
  Crash.configure ~prob:0.002 ~mid_casn_prob:0.7 ~max_kills:(threads - 1)
    ~seed:0xE22 ();
  let wd = Harness.Watchdog.create ~threads ~stall_after:30. () in
  let r =
    Harness.Runner.run ~seed:0xE22 ~watchdog:wd ~threads ~duration:0.3
      (fun ~tid ~rng ->
        Harness.Fault.enroll ~tid;
        if Dcas.Splitmix.int rng ~bound:2 = 0 then begin
          match C_array.push_right d tid with
          | `Okay -> pushes.(tid) <- pushes.(tid) + 1
          | `Full -> ()
        end
        else
          match C_array.pop_left d with
          | `Value _ -> pops.(tid) <- pops.(tid) + 1
          | `Empty -> ())
  in
  Crash.disarm ();
  let kills = Crash.kills () in
  Alcotest.(check int) "deaths seen by the runner" kills
    (Harness.Runner.deaths r);
  Alcotest.(check bool) "at most max_kills" true (kills <= threads - 1);
  let helped = Dcas.Mem_lockfree.help_orphans () in
  Alcotest.(check int) "orphans = mid-CASN kills" (Crash.mid_casn_kills ())
    helped;
  Alcotest.(check int) "helped exactly once each" helped
    (lf_stats ()).Dcas.Memory_intf.helped_orphans;
  Alcotest.(check bool) "watchdog quiet" false (Harness.Watchdog.fired wd);
  let drained = drain_left (fun () -> C_array.pop_left d) () in
  let pushed = Array.fold_left ( + ) 0 pushes in
  let popped = Array.fold_left ( + ) 0 pops in
  let lo = pushed - popped - kills and hi = pushed - popped + kills in
  if drained < lo || drained > hi then
    Alcotest.failf
      "conservation: drained %d with pushed=%d popped=%d kills=%d (want \
       [%d,%d])"
      drained pushed popped kills lo hi;
  (* the structure keeps working for survivors *)
  (match C_array.push_right d 42 with
  | `Okay -> ()
  | `Full -> Alcotest.fail "post-storm push failed");
  Alcotest.(check int) "post-storm drain" 1
    (drain_left (fun () -> C_array.pop_left d) ())

(* --- scheduler: per-task exception barrier and join-all run --- *)

exception Boom

let barrier_case (module S : Worksteal.Worksteal_intf.SCHEDULER) () =
  fresh ();
  let n = 50 in
  let ran = Atomic.make 0 in
  let raised_out =
    try
      S.run ~workers:3 ~capacity:64 (fun ctx ->
          for i = 1 to n do
            S.spawn ctx (fun _ ->
                if i = 7 then raise Boom else Atomic.incr ran)
          done);
      false
    with Boom -> true
  in
  (* the raising task neither killed its worker nor stranded pending:
     every other task still ran, and the exception resurfaced *)
  Alcotest.(check bool) "first task exception re-raised" true raised_out;
  Alcotest.(check int) "all other tasks ran" (n - 1) (Atomic.get ran)

(* --- supervised scheduling over crash-wrapped deques --- *)

(* The scheduler over a batched array deque on an instrumented memory *)
module Array_adapter (A : Deque.Array_deque.BATCHED) :
  Worksteal.Worksteal_intf.WORKSTEAL_DEQUE = struct
  type 'a t = 'a A.t

  let name = A.name
  let create ~capacity () = A.make ~length:capacity ()
  let push d v = match A.push_right d v with `Okay -> true | `Full -> false
  let pop d = match A.pop_right d with `Value v -> Some v | `Empty -> None
  let steal d = match A.pop_left d with `Value v -> Some v | `Empty -> None
  let steal_batch d ~max = A.pop_many_left d max
end

module C_sched = Worksteal.Scheduler.Make (Array_adapter (C_array))

(* a fork-join tree of [degree]^[depth] leaves, counting leaf visits *)
let tree_root ~degree ~depth counter ctx =
  let module S = C_sched in
  let rec node d ctx =
    if d = 0 then Atomic.incr counter
    else
      for _ = 1 to degree do
        C_sched.spawn ctx (node (d - 1))
      done
  in
  ignore (module S : Worksteal.Worksteal_intf.SCHEDULER);
  node depth ctx

let supervised_quiet () =
  fresh ();
  let counter = Atomic.make 0 in
  let r =
    C_sched.run_supervised ~workers:3 ~capacity:256
      (tree_root ~degree:3 ~depth:5 counter)
  in
  Alcotest.(check int) "all leaves visited" 243 (Atomic.get counter);
  Alcotest.(check bool) "conserved" true (Worksteal.Supervisor.conserved r);
  Alcotest.(check int) "no deaths" 0 r.Worksteal.Supervisor.killed;
  Alcotest.(check int) "nothing reconciled" 0 r.Worksteal.Supervisor.reconciled;
  Alcotest.(check int) "no orphans" 0 r.Worksteal.Supervisor.orphans_helped

(* One worker kills itself mid-tree: its next spawn's push dies
   mid-CASN, the supervisor adopts its deque and reconciles the lost
   units.  The run must terminate, conserve, and help the orphan. *)
let supervised_kill () =
  fresh ();
  let counter = Atomic.make 0 in
  let killed_once = Atomic.make false in
  let root ctx =
    let rec node d ctx =
      if d = 0 then Atomic.incr counter
      else begin
        if
          d = 3
          && (not (Atomic.get killed_once))
          && Atomic.compare_and_set killed_once false true
        then Crash.kill ~mode:`Mid_casn ~tid:(C_sched.worker ctx) ();
        for _ = 1 to 3 do
          C_sched.spawn ctx (node (d - 1))
        done
      end
    in
    node 5 ctx
  in
  let wd = Harness.Watchdog.create ~threads:4 ~stall_after:30. () in
  let r = C_sched.run_supervised ~workers:4 ~capacity:512 ~watchdog:wd root in
  Alcotest.(check bool) "watchdog quiet" false (Harness.Watchdog.fired wd);
  Alcotest.(check int) "exactly one death" 1 r.Worksteal.Supervisor.killed;
  Alcotest.(check bool) "replacement spawned" true
    (r.Worksteal.Supervisor.replacements >= 1);
  Alcotest.(check bool) "conserved" true (Worksteal.Supervisor.conserved r);
  Alcotest.(check int) "orphans helped = mid-CASN kills"
    (Crash.mid_casn_kills ())
    r.Worksteal.Supervisor.orphans_helped;
  (* the death loses at most the executing task, one mid-push child
     and one stolen batch *)
  Alcotest.(check bool) "reconciliation bounded" true
    (r.Worksteal.Supervisor.reconciled <= 8 + 2);
  (* every leaf not lost with the victim was visited exactly once *)
  let lost = r.Worksteal.Supervisor.reconciled in
  let visited = Atomic.get counter in
  if visited > 243 then
    Alcotest.failf "leaves visited twice: %d > 243" visited;
  if lost = 0 && visited <> 243 then
    Alcotest.failf "nothing reconciled yet only %d/243 leaves" visited

let supervised_storm () =
  fresh ();
  let counter = Atomic.make 0 in
  Crash.configure ~prob:0.001 ~mid_casn_prob:0.5 ~max_kills:2 ~seed:0x522 ();
  let wd = Harness.Watchdog.create ~threads:4 ~stall_after:30. () in
  let r =
    C_sched.run_supervised ~workers:4 ~capacity:512 ~watchdog:wd
      (tree_root ~degree:3 ~depth:6 counter)
  in
  Crash.disarm ();
  Alcotest.(check bool) "watchdog quiet" false (Harness.Watchdog.fired wd);
  Alcotest.(check int) "every death accounted" (Crash.kills ())
    r.Worksteal.Supervisor.killed;
  Alcotest.(check bool) "conserved" true (Worksteal.Supervisor.conserved r);
  Alcotest.(check int) "orphans helped = mid-CASN kills"
    (Crash.mid_casn_kills ())
    r.Worksteal.Supervisor.orphans_helped;
  Alcotest.(check bool) "reconciliation bounded" true
    (r.Worksteal.Supervisor.reconciled
    <= r.Worksteal.Supervisor.killed * 10);
  let visited = Atomic.get counter in
  if visited > 729 then Alcotest.failf "leaves visited twice: %d" visited;
  if visited < 729 - (r.Worksteal.Supervisor.reconciled * 729) then
    Alcotest.failf "implausible leaf count %d" visited

(* Silence -> fence -> replace.  The first depth-3 task arms a stall
   before its second spawn, so its worker sleeps inside that push,
   after its last look at the fence, for six times [silence_after].
   The monitor presumes it dead, fences it and hands its drained deque
   to a replacement; when the sleeper wakes, its push lands on the
   deque the drain already emptied.  The fenced worker must take that
   task back and run it: nothing may be written off as phantom, and
   every leaf runs.  (Without the fence the task is stranded, and
   reconciliation writes off a live depth-2 subtree: 9 leaves lost.) *)
let supervised_silent_push () =
  fresh ();
  let counter = Atomic.make 0 in
  let armed = Atomic.make false in
  let rec node d ctx =
    if d = 0 then Atomic.incr counter
    else
      for i = 1 to 3 do
        if i = 2 && d = 3 && Atomic.compare_and_set armed false true then
          Harness.Stall.request ~after_ops:1 ~duration:0.3;
        C_sched.spawn ctx (node (d - 1))
      done
  in
  let config = { Worksteal.Supervisor.default with silence_after = 0.05 } in
  let r = C_sched.run_supervised ~config ~workers:3 ~capacity:256 (node 5) in
  Alcotest.(check int) "no deaths" 0 r.Worksteal.Supervisor.killed;
  Alcotest.(check bool) "the sleeper was presumed dead" true
    (r.Worksteal.Supervisor.presumed_dead >= 1);
  Alcotest.(check int) "nothing written off" 0
    r.Worksteal.Supervisor.reconciled;
  Alcotest.(check int) "all leaves visited" 243 (Atomic.get counter);
  Alcotest.(check bool) "conserved" true (Worksteal.Supervisor.conserved r)

let () =
  Alcotest.run "crash"
    [
      ( "orphaned descriptors",
        [
          Alcotest.test_case "array-deque: owner killed mid-CASN" `Quick
            orphan_array;
          Alcotest.test_case "list-deque: owner killed mid-CASN" `Quick
            orphan_list;
          Alcotest.test_case "list-deque-dummy: owner killed mid-CASN" `Quick
            orphan_dummy;
          Alcotest.test_case "list-deque-casn: owner killed mid-CASN" `Quick
            orphan_casn;
        ] );
      ( "crash storm",
        [ Alcotest.test_case "seeded storm conserves" `Slow storm ] );
      ( "scheduler barrier",
        [
          Alcotest.test_case "raising task does not kill its worker" `Quick
            (barrier_case (module Worksteal.Scheduler.Array_scheduler));
          Alcotest.test_case "raising task (abp)" `Quick
            (barrier_case (module Worksteal.Scheduler.Abp_scheduler));
        ] );
      ( "supervised scheduler",
        [
          Alcotest.test_case "crash-free run conserves" `Quick supervised_quiet;
          Alcotest.test_case "push stalled past silence is given back" `Quick
            supervised_silent_push;
          Alcotest.test_case "targeted mid-CASN kill recovers" `Slow
            supervised_kill;
          Alcotest.test_case "probabilistic storm recovers" `Slow
            supervised_storm;
        ] );
    ]
