(* A declarative multi-storm schedule: the one storm driver of the
   E24/E25 soak.

   A sleep-kill-sleep-freeze driver cannot express what the Chase-Lev
   verification literature says actually breaks services — OVERLAPPING
   faults (a kill landing while another worker is frozen and a third
   is a zombie, all under spurious-failure chaos) — and it cannot tell
   the experiment whether each injection actually landed.

   A [window] declares one fault, an offset and a hold time; [run]
   executes a whole schedule on the calling domain (the soak runs it
   inside the service's [driver]), overlapping windows freely, and
   returns a per-window [landing] verdict read back from the
   injectors' own counters ({!Crash.killed},
   {!Stall.Freezer.freeze_hits_of}, {!Stall.Zombie.bites_of},
   {!Chaos.spurious}) — so a soak can GATE on "every scheduled fault
   landed" instead of hoping.

   [jittered] perturbs the offsets with a seeded uniform shift so
   repeated soaks sample different alignments of the same storm
   without losing reproducibility. *)

type fault =
  | Kill of { tid : int; mid_casn : bool }
      (* fail-stop the victim at its next crash point; [mid_casn]
         aims inside a CASN with a published descriptor *)
  | Freeze of { tid : int }  (* park at next shared-memory access *)
  | Zombie of { tid : int }  (* alive and ticking, no progress *)
  | Chaos of { fail_prob : float; seed : int }
      (* spurious DCAS/CASN failures on every domain *)

type window = { at : float; hold : float; fault : fault }

type landing = {
  window : window;
  started : float;  (* measured offset of the start event, seconds *)
  ended : float;  (* measured offset of the stop event *)
  landed : bool;  (* the injector's own counter confirmed a hit *)
}

let pp_fault ppf = function
  | Kill { tid; mid_casn } ->
      Format.fprintf ppf "kill(tid=%d%s)" tid
        (if mid_casn then ",mid-casn" else "")
  | Freeze { tid } -> Format.fprintf ppf "freeze(tid=%d)" tid
  | Zombie { tid } -> Format.fprintf ppf "zombie(tid=%d)" tid
  | Chaos { fail_prob; seed } ->
      Format.fprintf ppf "chaos(fail=%g,seed=%d)" fail_prob seed

(* Everything that could make [run] raise midway is rejected here,
   before any window opens. *)
let validate ws =
  List.iter
    (fun w ->
      if not (w.at >= 0.) then
        invalid_arg "Storm: window offsets must be >= 0";
      if not (w.hold >= 0.) then
        invalid_arg "Storm: window holds must be >= 0";
      match w.fault with
      | Kill { tid; _ } | Freeze { tid } | Zombie { tid } ->
          if tid < 0 || tid >= Fault.max_slots then
            invalid_arg
              (Printf.sprintf "Storm: window tid must be in [0, %d)"
                 Fault.max_slots)
      | Chaos { fail_prob; _ } ->
          if not (fail_prob >= 0. && fail_prob <= 1.) then
            invalid_arg "Storm: chaos fail_prob must be in [0, 1]")
    ws

(* Seeded uniform shift of each window's offset in [-jitter, +jitter],
   clamped at 0.  Holds are left alone: the hold is the experiment's
   contract (e.g. "the zombie lasts the whole middle phase"), the
   alignment is what deserves fuzzing. *)
let jittered ~seed ~jitter ws =
  if not (jitter >= 0.) then invalid_arg "Storm.jittered: jitter must be >= 0";
  let rng = Dcas.Splitmix.create ~seed in
  List.map
    (fun w ->
      let u =
        float_of_int (Dcas.Splitmix.int rng ~bound:2001 - 1000) /. 1000.
      in
      { w with at = Float.max 0. (w.at +. (u *. jitter)) })
    ws

type event = { time : float; idx : int; phase : [ `Start | `Stop ] }

(* A window's own landing counter; a kill has none — it has landed
   once its victim is dead ({!Crash.killed}). *)
let hits = function
  | Kill _ -> 0
  | Freeze { tid } -> Stall.Freezer.freeze_hits_of ~tid
  | Zombie { tid } -> Stall.Zombie.bites_of ~tid
  | Chaos _ -> Chaos.spurious ()

let run ?(on_active = fun (_ : int) -> ()) ?(settle = 0.) windows =
  validate windows;
  let ws = Array.of_list windows in
  let n = Array.length ws in
  let baseline = Array.make n 0 in
  let started = Array.make n 0. in
  let ended = Array.make n 0. in
  let live = Array.make n false in
  (* chaos is one global setting: it stays armed until the last open
     Chaos window closes *)
  let chaos_open = ref 0 in
  let start i =
    baseline.(i) <- hits ws.(i).fault;
    live.(i) <- true;
    match ws.(i).fault with
    | Kill { tid; mid_casn } ->
        Crash.kill ~mode:(if mid_casn then `Mid_casn else `At_point) ~tid ()
    | Freeze { tid } -> Stall.Freezer.freeze ~tid
    | Zombie { tid } -> Stall.Zombie.zombify ~tid
    | Chaos { fail_prob; seed } ->
        incr chaos_open;
        Chaos.configure ~fail_prob ~seed ()
  in
  let stop i =
    live.(i) <- false;
    match ws.(i).fault with
    | Kill _ -> ()
    | Freeze { tid } -> Stall.Freezer.thaw ~tid
    | Zombie { tid } -> Stall.Zombie.cure ~tid
    | Chaos _ ->
        decr chaos_open;
        if !chaos_open = 0 then Chaos.disarm ()
  in
  let events =
    List.sort
      (fun a b ->
        let rank p = match p.phase with `Start -> 0 | `Stop -> 1 in
        compare (a.time, rank a, a.idx) (b.time, rank b, b.idx))
      (List.concat
         (List.init n (fun i ->
              let w = ws.(i) in
              [
                { time = w.at; idx = i; phase = `Start };
                { time = w.at +. w.hold; idx = i; phase = `Stop };
              ])))
  in
  let t0 = Unix.gettimeofday () in
  let active = ref 0 in
  let step ev =
    let slack = t0 +. ev.time -. Unix.gettimeofday () in
    if slack > 0. then Unix.sleepf slack;
    let i = ev.idx in
    (match ev.phase with
    | `Start ->
        start i;
        started.(i) <- Unix.gettimeofday () -. t0;
        incr active
    | `Stop ->
        stop i;
        ended.(i) <- Unix.gettimeofday () -. t0;
        decr active);
    on_active !active
  in
  (* a raising run must not leave a victim parked, a zombie biting or
     chaos armed behind it *)
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun i open_ -> if open_ then stop i) live)
    (fun () -> List.iter step events);
  (* Let in-flight effects register (a kill lands at the victim's NEXT
     crash point, not synchronously) before reading the verdicts. *)
  if settle > 0. then Unix.sleepf settle;
  List.init n (fun i ->
      let landed =
        match ws.(i).fault with
        | Kill { tid; _ } -> Crash.killed ~tid
        | f -> hits f > baseline.(i)
      in
      { window = ws.(i); started = started.(i); ended = ended.(i); landed })
