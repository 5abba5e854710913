(** [skyperf compare A.jsonl B.jsonl]: baseline A against change B.

    Each file holds run records (the [{"skyperf":"run",...}] lines
    [skyperf run] prints), runs of the two sides made alternately. Per
    (metric, workload) it reports each side's median and quartiles, the
    fraction of pairs (A's i-th run, B's i-th run) that B wins — ties
    count for neither side — and, for end-to-end metrics, a verdict
    against the metric's bound:

    - [unresolved] when either side's spread (interquartile distance
      over median) exceeds the bound, unless every B run beats every A
      run;
    - [regressed] when B's median is worse than A's by more than the
      bound;
    - [improved] when B wins at least nine tenths of the pairs and the
      medians differ by more than A's interquartile distance;
    - [unchanged] otherwise. *)

module Json = Sky_trace.Json

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type side = { q1 : float; median : float; q3 : float; n : int }

type row = {
  r_workload : string;
  r_metric : string;
  r_a : side;
  r_b : side;
  r_pairs : int;
  r_b_wins : int;
  r_verdict : verdict option;  (** [None] for metrics without a bound *)
}

let side xs =
  let q1, _, q3 = Stats.quartiles xs in
  { q1; median = Stats.median xs; q3; n = Array.length xs }

(* [beats better x y]: x is strictly better than y. *)
let beats better x y =
  match better with Metrics.Higher -> x > y | Metrics.Lower -> x < y

(* Pairs (A's i-th run, B's i-th run) and how many of them B wins. *)
let wins ~better a b =
  let pairs = min (Array.length a) (Array.length b) in
  let w = ref 0 in
  for i = 0 to pairs - 1 do
    if beats better b.(i) a.(i) then incr w
  done;
  (pairs, !w)

let verdict ~better ~bound a b =
  let sa = side a and sb = side b in
  let worse_by =
    if sa.median = 0.0 then (if sb.median = 0.0 then 0.0 else Float.infinity)
    else
      match better with
      | Metrics.Lower -> (sb.median -. sa.median) /. Float.abs sa.median
      | Metrics.Higher -> (sa.median -. sb.median) /. Float.abs sa.median
  in
  let pairs, b_wins = wins ~better a b in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> beats better y x) a) b in
  if Stats.spread a > bound || Stats.spread b > bound then
    if all_better then Improved else Unresolved
  else if worse_by > bound then Regressed
  else if
    pairs > 0
    && float_of_int b_wins >= 0.9 *. float_of_int pairs
    && worse_by < 0.0
    && Float.abs (sb.median -. sa.median) > sa.q3 -. sa.q1
  then Improved
  else Unchanged

(* ---- run records ---- *)

type run = { workload : string; values : (string * float) list }

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let run_of_json j =
  match (Json.member "skyperf" j, Json.member "workload" j, Json.member "metrics" j) with
  | Some _, Some (Json.String workload), Some (Json.Obj ms) ->
    let values =
      List.filter_map
        (fun (k, v) ->
          match Json.member "value" v with
          | Some n -> Option.map (fun f -> (k, f)) (number n)
          | None -> None)
        ms
    in
    Some { workload; values }
  | _ -> None

(** Run records of a file, in order; other lines are skipped. *)
let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      let r = try run_of_json (Json.of_string line) with _ -> None in
      go (match r with Some r -> r :: acc | None -> acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let rows a b =
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  List.concat_map
    (fun wl ->
      let of_side runs name =
        Array.of_list
          (List.filter_map
             (fun r -> if r.workload = wl then List.assoc_opt name r.values else None)
             runs)
      in
      List.filter_map
        (fun (m : Metrics.t) ->
          let xa = of_side a m.name and xb = of_side b m.name in
          if xa = [||] || xb = [||] then None
          else
            let pairs, b_wins = wins ~better:m.better xa xb in
            Some
              {
                r_workload = wl;
                r_metric = m.name;
                r_a = side xa;
                r_b = side xb;
                r_pairs = pairs;
                r_b_wins = b_wins;
                r_verdict =
                  (match m.kind with
                  | Metrics.End_to_end { bound } -> Some (verdict ~better:m.better ~bound xa xb)
                  | Metrics.Per_layer _ -> None);
              })
        Metrics.all)
    workloads

let print rows =
  Printf.printf "%-9s %-34s %27s %27s %9s %s\n" "workload" "metric" "A q1/median/q3"
    "B q1/median/q3" "B wins" "verdict";
  List.iter
    (fun r ->
      let s x = Printf.sprintf "%.4g/%.4g/%.4g" x.q1 x.median x.q3 in
      Printf.printf "%-9s %-34s %27s %27s %4d/%-4d %s\n" r.r_workload r.r_metric (s r.r_a)
        (s r.r_b) r.r_b_wins r.r_pairs
        (match r.r_verdict with Some v -> verdict_name v | None -> "-"))
    rows

(** Exit status of a comparison: non-zero iff some metric regressed. *)
let exit_code rows =
  if List.exists (fun r -> r.r_verdict = Some Regressed) rows then 1 else 0
