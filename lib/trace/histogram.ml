(** Log-bucketed latency histogram: O(1) insert, approximate quantiles.

    Values land in [2^k, 2^(k+1)) ranges subdivided into
    [sub_buckets] linear sub-buckets (HdrHistogram-style, ~12% worst-case
    relative error at 8 sub-buckets), so a histogram covers the full
    [0, max_int] cycle range in a few hundred counters. Inserts on the
    IPC hot path never allocate. *)

let max_exp = 62
let sub_buckets = 8

type t = {
  counts : int array;  (** [max_exp * sub_buckets] bucket counters *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    counts = Array.make (max_exp * sub_buckets) 0;
    n = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

(* Bucket index of a non-negative value. Values 0..sub_buckets-1 map to
   exact unit buckets in the first rows. *)
let bucket_of v =
  if v < sub_buckets then v
  else begin
    (* exp = position of the highest set bit *)
    let rec msb x acc = if x <= 1 then acc else msb (x lsr 1) (acc + 1) in
    let exp = msb v 0 in
    let sub = (v lsr (exp - 3)) land (sub_buckets - 1) in
    (exp * sub_buckets) + sub
  end

(* Representative (upper-edge) value of a bucket, the inverse of
   {!bucket_of} up to sub-bucket resolution. *)
let bucket_value i =
  if i < sub_buckets then i
  else
    let exp = i / sub_buckets and sub = i mod sub_buckets in
    if exp < 3 then (1 lsl exp) lor sub
    else (1 lsl exp) lor (sub lsl (exp - 3)) lor ((1 lsl (exp - 3)) - 1)

let add t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let max_value t = t.max_v
let min_value t = if t.n = 0 then 0 else t.min_v
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

(* Quantile by walking the cumulative counts; the exact max is reported
   for the top of the distribution (q >= the last sample's rank). *)
let percentile t q =
  if t.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q /. 100.0 *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let rec go i seen =
      if i >= Array.length t.counts then t.max_v
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= rank then min (bucket_value i) t.max_v else go (i + 1) seen
      end
    in
    go 0 0
  end

let p50 t = percentile t 50.0
let p95 t = percentile t 95.0
let p99 t = percentile t 99.0
let p999 t = percentile t 99.9
