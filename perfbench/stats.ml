(* Clock, growable buffers and order statistics. *)

(* bechamel's CLOCK_MONOTONIC reader, in nanoseconds *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable array (the stdlib's Dynarray arrives in OCaml 5.2). *)
type 'a vec = { mutable data : 'a array; mutable len : int; dummy : 'a }

let vec dummy = { data = Array.make 1024 dummy; len = 0; dummy }

let push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (2 * v.len) v.dummy in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

(* Linear interpolation between order statistics (the "type 7" rule
   numpy and R use by default); [q] in [0, 1]. *)
let quantile_sorted (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  quantile_sorted s q

let median a = quantile a 0.5

(* A fixed piece of work that calls none of the program's code: integer
   hashing, a sort and string building on the minor heap, like the
   solver's own mix. Its wall time on the monotonic clock, in
   nanoseconds, tells how fast the host runs ordinary OCaml at the
   moment, whatever the program under test does. *)
let probe_ns () =
  let t0 = now_ns () in
  let h = Hashtbl.create 4096 in
  for i = 0 to 9_999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let l = List.init 10_000 (fun i -> (i * 7919) mod 10_007) in
  let b = Buffer.create 4096 in
  List.iter
    (fun x -> if Hashtbl.mem h x then Buffer.add_string b (string_of_int x))
    (List.sort compare l);
  ignore (Sys.opaque_identity (Buffer.length b));
  now_ns () - t0
