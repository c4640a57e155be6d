module Counter = struct
  type t = { mutable calls : int; mutable bits : int }

  let create () = { calls = 0; bits = 0 }
  let calls t = t.calls
  let bits t = t.bits

  let reset t =
    t.calls <- 0;
    t.bits <- 0

  let charge t k =
    t.calls <- t.calls + 1;
    t.bits <- t.bits + k

  (* Additional raw bits consumed within an already-charged call (rejection
     re-draws): bits accrue without counting another call. *)
  let charge_bits t k = t.bits <- t.bits + k
end

(* A stream's two 64-bit words, [base] (its seed) at byte 0 and [state]
   at byte 8, live in one 16-byte buffer read and written in place: a
   mutable [int64] field would box on every store, and the engine reseeds
   a stream for every step. *)
type t = { words : Bytes.t; counter : Counter.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: fast, high-quality 64-bit mixing; every run is a pure function
   of the seed, which the whole test suite relies on. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let state = Int64.add (get64 t.words 8) golden in
  set64 t.words 8 state;
  mix64 state

let[@inline] reseed words base =
  set64 words 0 base;
  set64 words 8 base

let stream counter base =
  let words = Bytes.create 16 in
  reseed words base;
  { words; counter }

let create ?counter ~seed () =
  let counter = match counter with Some c -> c | None -> Counter.create () in
  stream counter (mix64 (Int64.add seed golden))

let[@inline] derived_base t i =
  mix64 (Int64.logxor (get64 t.words 0) (mix64 (Int64.of_int (i + 1))))

let derive t i = stream t.counter (derived_base t i)

(* Same derivation as [derive], but reseeding an existing stream in place so
   the engine's inner loop does not allocate a stream per step. [into] must
   share [t]'s counter for the accounting to stay coherent. *)
let derive_into ~into t i = reseed into.words (derived_base t i)

let counter t = t.counter

let[@inline] raw_bits t k =
  Int64.to_int (Int64.shift_right_logical (next t) (64 - k))

let bit t =
  Counter.charge t.counter 1;
  raw_bits t 1

let bits t k =
  if k < 1 || k > 62 then invalid_arg "Rand.bits: k must be in [1, 62]";
  Counter.charge t.counter k;
  raw_bits t k

let int_below t m =
  if m <= 0 then invalid_arg "Rand.int_below: bound must be positive";
  (* The smallest k >= 1 with 2^k >= m; rejection sampling keeps the
     distribution exactly uniform. One logical call, but every draw attempt
     consumes k fresh bits from the source — rejected draws included —
     so each re-draw is charged too, or rand_bits would undercount the
     randomness the algorithm actually spent. *)
  let k = ref 1 in
  while (m - 1) lsr !k <> 0 do
    incr k
  done;
  let k = !k in
  Counter.charge t.counter k;
  let v = ref (raw_bits t k) in
  while !v >= m do
    Counter.charge_bits t.counter k;
    v := raw_bits t k
  done;
  !v

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float t =
  Counter.charge t.counter 53;
  unit_float t

(* [float t < p] without boxing the draw: the comparison happens on the
   unboxed value, and a [bool] is immediate. *)
let[@inline] chance t p =
  Counter.charge t.counter 53;
  unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
