(** Minimal aligned-table rendering for experiment output, with optional
    paper-reference columns so every bench prints "paper vs measured"
    side by side. *)

type t = { title : string; header : string list; rows : string list list; notes : string list }

let make ~title ~header ?(notes = []) rows = { title; header; rows; notes }

let widths t =
  let all = t.header :: t.rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let w = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)))
    all;
  w

let render t =
  let w = widths t in
  let line cells =
    String.concat "  "
      (List.mapi
         (fun i c ->
           let pad = w.(i) - String.length c in
           if i = 0 then c ^ String.make pad ' ' else String.make pad ' ' ^ c)
         cells)
  in
  let sep =
    String.concat "--"
      (Array.to_list (Array.map (fun n -> String.make n '-') w))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) t.rows;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t = print_string (render t)

let to_markdown t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "### %s\n\n" t.title);
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  Buffer.add_string buf (row t.header);
  Buffer.add_string buf (row (List.map (fun _ -> "---") t.header));
  List.iter (fun r -> Buffer.add_string buf (row r)) t.rows;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "\n> %s\n" n)) t.notes;
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* Machine-readable rendering for `skybench run --json`, so benchmark
   trajectories can be recorded across PRs. *)
let to_json t =
  let open Sky_trace.Json in
  let row cells = List (List.map (fun c -> String c) cells) in
  to_string
    (Obj
       [
         ("title", String t.title);
         ("header", row t.header);
         ("rows", List (List.map row t.rows));
         ("notes", row t.notes);
       ])

(* Render tracer latency histograms as a table — the hook any experiment
   (or `skybench trace`) uses to print its p50/p95/p99 profile. *)
let of_histograms ~title hists =
  make ~title
    ~header:[ "span"; "count"; "p50"; "p95"; "p99"; "max"; "mean" ]
    (List.map
       (fun (name, h) ->
         let open Sky_trace.Histogram in
         [
           name;
           string_of_int (count h);
           string_of_int (p50 h);
           string_of_int (p95 h);
           string_of_int (p99 h);
           string_of_int (max_value h);
           Printf.sprintf "%.1f" (mean h);
         ])
       hists)

(* Per-category cycle attribution (the tracer's Figure-7-style view). *)
let of_categories ~title cats =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 cats in
  make ~title
    ~header:[ "category"; "cycles"; "share" ]
    (List.map
       (fun (name, c) ->
         [
           name;
           string_of_int c;
           (if total = 0 then "0.0%"
            else Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int total));
         ])
       cats)

let fmt_int n =
  (* 12345 -> "12,345" for readability *)
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 && c <> '-' then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_ops f = Printf.sprintf "%.0f" f
let fmt_speedup f = Printf.sprintf "%+.1f%%" ((f -. 1.0) *. 100.0)
