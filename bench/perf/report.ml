(** The result lines [skyperf run] prints, and its exit status. *)

module Json = Sky_trace.Json

(** [0] iff every correctness check passed. *)
let exit_code checks = if List.for_all snd checks then 0 else 1

let unit_of name =
  match Metrics.find name with
  | Some m -> m.Metrics.unit_
  | None -> invalid_arg ("Report: unregistered metric " ^ name)

let value_json name v extra =
  (name, Json.Obj ([ ("value", Json.Float v); ("unit", Json.String (unit_of name)) ] @ extra))

let of_kind ~end_to_end = List.filter (fun m -> Metrics.is_end_to_end m = end_to_end) Metrics.all

(** The registry's metrics of one kind that [values] lacks (a complete
    run lacks none). *)
let missing ~end_to_end values =
  List.filter_map
    (fun (m : Metrics.t) -> if List.mem_assoc m.name values then None else Some m.name)
    (of_kind ~end_to_end)

(** The last line of [skyperf run]'s output: exactly the keys
    [correct], [attempted], [failed] and [metrics], with the metrics of
    the requested kind — end-to-end untraced, per-layer traced. *)
let result_line ~end_to_end ~checks ~attempted ~failed values =
  let metrics =
    List.filter_map
      (fun (m : Metrics.t) ->
        Option.map (fun v -> value_json m.name v []) (List.assoc_opt m.name values))
      (of_kind ~end_to_end)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (exit_code checks = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])
