(* A log-linear (HDR-style) histogram of non-negative integer values,
   typically latencies in nanoseconds.

   Layout: values below 64 get one bucket each; above that, every power
   of two [2^e, 2^(e+1)) splits into 32 equal sub-buckets of width
   2^(e-5), up to 2^36 (about 69 s in ns).  A value is located by
   shifting it right until it lies below 64: after [s] shifts it sits
   in [32, 64), and its flat bucket index is that value plus 32 * s.
   That gives 32 rows of 32 buckets: row 0 holds 0-31 and row r >= 1
   holds the octave [2^(r+4), 2^(r+5)).  A bucket's reported value is
   the largest value it holds, so a quantile reads at most one bucket
   width, 1/32 of its lower edge, above the true value and never below.

   Rows are separate arrays so every block stays small enough for the
   minor heap: one flat array of 1 024 cells would go to the major heap
   and make [create] several times slower.  Counters are unpadded
   atomics: recording is one [Atomic.incr] and allocates nothing, so
   any domain may record into a shared histogram; a read racing writes
   may miss in-flight increments. *)

let sub_bits = 5
let sub = 1 lsl sub_bits
let rows = 32
let buckets = rows * sub
let limit = 1 lsl 36

type t = { cells : int Atomic.t array array; overflow : int Atomic.t }

let create () =
  {
    cells = Array.init rows (fun _ -> Array.init sub (fun _ -> Atomic.make 0));
    overflow = Atomic.make 0;
  }

let rec index v shifts =
  if v < 2 * sub then v + (shifts lsl sub_bits)
  else index (v lsr 1) (shifts + 1)

let cell t i = t.cells.(i lsr sub_bits).(i land (sub - 1))

let record t v =
  if v >= limit then Atomic.incr t.overflow
  else Atomic.incr (cell t (index (if v < 0 then 0 else v) 0))

(* The largest value bucket [i] holds: [i] itself below 64, else the
   top of a sub-bucket of width 2^shifts. *)
let upper i =
  if i < 2 * sub then i
  else
    let shifts = (i lsr sub_bits) - 1 in
    ((i - (shifts lsl sub_bits) + 1) lsl shifts) - 1

(* Reads are top-level loops, so a read allocates nothing: admission
   control reads a quantile on every request it judges. *)
let rec count_row row j n =
  if j = sub then n else count_row row (j + 1) (n + Atomic.get row.(j))

let rec count_rows cells r n =
  if r = rows then n else count_rows cells (r + 1) (count_row cells.(r) 0 n)

let count t = count_rows t.cells 0 (Atomic.get t.overflow)

(* The upper value of the bucket holding the [rank]-th value, or
   [max_int] when the rank lies in the overflow bucket. *)
let rec walk t rank i seen =
  if i = buckets then max_int
  else
    let seen = seen + Atomic.get (cell t i) in
    if seen >= rank then upper i else walk t rank (i + 1) seen

let quantile_int t ~count q =
  let rank = int_of_float (Float.ceil (q *. float_of_int count)) in
  walk t (if rank < 1 then 1 else if rank > count then count else rank) 0 0

let quantile t q =
  let total = count t in
  if total = 0 then Float.nan
  else
    let v = quantile_int t ~count:total q in
    if v = max_int then infinity else float_of_int v
