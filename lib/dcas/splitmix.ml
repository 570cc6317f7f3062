(* SplitMix64: a tiny, fast, statistically solid PRNG with a splittable
   seed, so every worker thread gets an independent deterministic
   stream — benchmark runs and stress tests are reproducible without
   any cross-thread RNG state.

   The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would store a freshly boxed state on every draw, while
   [Bytes.set_int64_ne] writes the raw word, so with [next_int64]
   inlined a draw allocates nothing. *)

type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A non-negative int uniform below [bound]. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Derive an independent stream; used to hand each worker its own
   generator from one master seed. *)
let split t = of_state (next_int64 t)
