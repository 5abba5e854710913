(** Order statistics for host measurements.

    [quartiles] reproduces Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) bit for bit, so spreads printed
    here match what an external script computes from the same values. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(method='exclusive'): cut points i*(n+1)/4,
   clamped to the interior of the data, interpolated in exact integer
   arithmetic. A single sample is its own quartiles. *)
let quartiles xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  let a = sorted xs in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(** Interquartile distance as a share of the median ([0] for a zero
    median). *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(** Nearest-rank percentile ([p] in 0..100) of exact samples: the
    smallest sample with at least [p]% of all samples at or below it —
    the rule {!Sky_trace.Histogram.percentile} applies to its buckets. *)
let rank ~n ~p =
  (* the epsilon keeps 99.9% of 10000 at rank 9990, not 9991 *)
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  max 1 (min n r)

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank ~n ~p - 1)

(** [p]-th percentile of a log-bucketed {!Sky_trace.Histogram},
    interpolated linearly inside the bucket that holds the nearest rank
    (the histogram's own [percentile] returns the bucket's upper edge,
    which moves in steps of up to 12.5%). The bucket's edges are first
    narrowed to the recorded minimum and maximum. *)
let hist_percentile (h : Sky_trace.Histogram.t) ~p =
  let module H = Sky_trace.Histogram in
  let n = H.count h in
  if n = 0 then 0.0
  else begin
    let r = rank ~n ~p in
    let rec go i seen =
      let c = h.H.counts.(i) in
      if seen + c < r then go (i + 1) (seen + c)
      else
        let top = H.bucket_value i in
        let width = if i < H.sub_buckets then 1 else 1 lsl ((i / H.sub_buckets) - 3) in
        let lo = max (top - width + 1) (H.min_value h) and hi = min top (H.max_value h) in
        let frac = (float_of_int (r - seen) -. 0.5) /. float_of_int c in
        float_of_int lo +. (float_of_int (hi - lo) *. frac)
    in
    go 0 0
  end

(** Samples strictly above the [p]-th percentile's rank. *)
let beyond ~n ~p = n - rank ~n ~p

(** A percentile is reported only when at least ten samples lie beyond
    it; otherwise it is the maximum of a handful of values. *)
let tail_ok ~n ~p = n > 0 && beyond ~n ~p >= 10
