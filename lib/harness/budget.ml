(** Perf budgets ([bench/budgets.json]): one object per experiment
    section holding integer budgets, e.g.
    [{"pingpong":{"cycles_per_call":6958},"overload":{...}}]. Every
    lookup is scoped to its own section. A missing file skips the budget
    checks with a message; a file that is present but lacks the section
    or key fails the check that needs it. *)

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

let find t ~section ~key =
  Option.bind t.json (fun j ->
      Option.bind (Sky_trace.Json.member section j) (fun s ->
          Option.bind (Sky_trace.Json.member key s) Sky_trace.Json.int_value))

(* The regression rule: [value] may exceed its budget by at most 2 %.
   Returns the check as a (name, holds) pair; with no budgets file the
   check is skipped and holds. *)
let ceiling t ~section ~key value =
  let name = section ^ "." ^ key in
  match (t.json, find t ~section ~key) with
  | None, _ -> (name, true)
  | Some _, None -> (Printf.sprintf "%s (no budget in %s)" name t.file, false)
  | Some _, Some budget ->
    let limit = budget * 102 / 100 in
    ( Printf.sprintf "%s (%d > budget %d +2%% = %d)" name value budget limit,
      value <= limit )
