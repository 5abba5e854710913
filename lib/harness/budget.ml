(** Perf budgets ([bench/budgets.json]): one object per experiment
    section. A ceiling holds one integer budget per isolation backend,
    keyed by its [Backend.name], and a floor one integer, e.g.
    [{"pingpong":{"cycles_per_call":{"vmfunc":6958,"mpk":6514,...}},
    "overload":{"goodput_floor_pct":70,...}}]. Every lookup is scoped to
    its own section. A missing file skips the budget checks with a
    message; a file that is present but lacks the section or key fails
    the check that needs it, ceiling and floor alike. *)

let default_file = "bench/budgets.json"

type t = { file : string; json : Sky_trace.Json.t option  (** [None]: no file *) }

let load file =
  if not (Sys.file_exists file) then begin
    Printf.eprintf "%s not found; skipping budget checks\n%!" file;
    { file; json = None }
  end
  else
    let ic = open_in_bin file in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Sky_trace.Json.of_string s with
    | j -> { file; json = Some j }
    | exception Sky_trace.Json.Parse_error msg ->
      (* Present but unreadable: every budget in it counts as missing. *)
      Printf.eprintf "%s: %s\n%!" file msg;
      { file; json = Some Sky_trace.Json.Null }

let lookup t path =
  Option.bind t.json (fun j ->
      Option.bind
        (List.fold_left (fun v k -> Option.bind v (Sky_trace.Json.member k)) (Some j) path)
        Sky_trace.Json.int_value)

let find t ~section ~key = lookup t [ section; key ]

(* The regression rule: [value], measured under [backend], may exceed
   that backend's budget by at most 2 %. Returns the check as a (name,
   holds) pair; with no budgets file the check is skipped and holds. *)
let ceiling t ~section ~key ~backend value =
  let name = String.concat "." [ section; key; backend ] in
  match (t.json, lookup t [ section; key; backend ]) with
  | None, _ -> (name, true)
  | Some _, None -> (Printf.sprintf "%s (no budget in %s)" name t.file, false)
  | Some _, Some budget ->
    let limit = budget * 102 / 100 in
    ( Printf.sprintf "%s (%d > budget %d +2%% = %d)" name value budget limit,
      value <= limit )

(* The floor rule: [value], a fraction, must reach the key's
   percentage. The file is read as {!ceiling} reads it: no file skips
   the check, a file without the key fails it. *)
let floor t ~section ~key value =
  let name = String.concat "." [ section; key ] in
  match (t.json, lookup t [ section; key ]) with
  | None, _ -> (name, true)
  | Some _, None -> (Printf.sprintf "%s (no budget in %s)" name t.file, false)
  | Some _, Some pct ->
    let floor = float_of_int pct /. 100.0 in
    (Printf.sprintf "%s (%.3f < floor %.2f)" name value floor, value >= floor)
