(* The splitmix64 state lives unboxed in an 8-byte buffer: a
   [mutable int64] field would box a fresh int64 on every draw. With
   [mix64] and [next_int64] inlined, the int-returning draws below
   allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = create (next_int64 t)

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Chen's approximation of a Zipf draw: invert the CDF of the
   continuous analogue. Accurate enough for generating skewed keys. *)
let zipf t ~n ~theta =
  if theta <= 0.0 then int t n
  else begin
    let u = Stdlib.max 1e-12 (float t 1.0) in
    let alpha = 1.0 -. theta in
    let x = Stdlib.Float.pow (float_of_int n) alpha in
    let v = Stdlib.Float.pow ((x -. 1.0) *. u +. 1.0) (1.0 /. alpha) in
    let k = int_of_float v - 1 in
    if k < 0 then 0 else if k >= n then n - 1 else k
  end
