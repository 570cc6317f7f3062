(* Fail-stop crash injection, controller side (experiment E22 and the
   supervised soaks).  Where {!Stall.Freezer} parks a victim and later
   releases it, a crash is permanent: the victim raises {!Died} at an
   instrumented point of {!Fault.Mem} — or mid-CASN, with its own
   descriptor published and undecided — and never touches the
   structure again.  The victim side, the slot table and the per-domain
   death streams live in {!Fault}; this module raises kill requests,
   arms probabilistic deaths and reads the body count. *)

exception Died = Fault.Died

type mode = [ `At_point | `Mid_casn ]

let kill ?(mode = (`Mid_casn : mode)) ~tid () =
  let s = Fault.slot ~who:"Crash.kill" tid in
  Fault.install_hook ();
  Atomic.set s.kill_mid_casn (mode = `Mid_casn);
  Atomic.set s.kill true

let configure ?(prob = 0.) ?(mid_casn_prob = 1.) ?(max_kills = max_int) ~seed
    () =
  if max_kills < 0 then invalid_arg "Crash.configure: max_kills must be >= 0";
  let ppm_of_prob = Fault.ppm_of_prob ~who:"Crash.configure" in
  Fault.arm_deaths
    ~prob_ppm:(ppm_of_prob ~what:"prob" prob)
    ~mid_casn_ppm:(ppm_of_prob ~what:"mid_casn_prob" mid_casn_prob)
    ~max_kills ~seed

let disarm () =
  Fault.arm_deaths ~prob_ppm:0 ~mid_casn_ppm:0 ~max_kills:0 ~seed:0

let kills () = Atomic.get Fault.kills
let mid_casn_kills () = Atomic.get Fault.mid_casn_kills
let killed ~tid = Atomic.get (Fault.slot ~who:"Crash.killed" tid).dead
