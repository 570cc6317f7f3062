(* The one clock of the service stack: CLOCK_MONOTONIC read as an
   immediate int of nanoseconds.  The stub is bechamel's
   [Monotonic_clock]: [noalloc], with an unboxed [int64] result, so a
   read allocates nothing, and the repository benchmark stamps its
   requests with the same stub, so a service hook's [ns] and the
   benchmark's stamps share one time base.  Unlike the wall clock, an
   NTP step cannot move it backwards. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* 2^62 as a float: every float below it truncates to an int without
   overflow. *)
let int_bound = float_of_int max_int

(* A span of [s] seconds in ns, saturating: a span too long for an int
   (infinity and NaN included) is [max_int], a negative one is 0. *)
let ns_of_s s =
  let ns = s *. 1e9 in
  if not (ns < int_bound) then max_int
  else if ns <= 0. then 0
  else int_of_float ns

(* The instant [s] seconds after [now], saturating at [max_int]: a
   budget too large for an int never expires, it does not wrap. *)
let after ~now s =
  let ns = ns_of_s s in
  if ns > max_int - now then max_int else now + ns
