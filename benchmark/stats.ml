(* Order statistics over latency samples, and the quartiles --repeat
   reports. *)

(* A growable flat array of samples.  Ints and floats are stored
   unboxed, so a long run's buffers give the minor GC nothing to
   promote. *)
type 'a buf = { zero : 'a; mutable data : 'a array; mutable len : int }

let buf zero = { zero; data = Array.make 1024 zero; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) b.zero in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let to_array b = Array.sub b.data 0 b.len

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks of the sorted samples. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor x) in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 0.5

(* The tail percentile a workload reports must leave at least ten samples
   beyond it, or it is not a tail but a guess. *)
let beyond ~p n = n - int_of_float (Float.ceil (p *. float_of_int n))
let tail_supported ~p n = beyond ~p n >= 10

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (the default, exclusive method). *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let q j =
    let m = j * (n + 1) in
    let k = max 1 (min (n - 1) (m / 4)) in
    let delta = float_of_int (m - (k * 4)) in
    ((s.(k - 1) *. (4.0 -. delta)) +. (s.(k) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)
