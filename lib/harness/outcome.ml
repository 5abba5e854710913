(** What one experiment run hands the harness: the table printed for
    humans, the deterministic JSON payload printed with [--json] and
    archived as an artifact's "result", host facts for the artifact's
    "host" object, and the names of the acceptance checks that failed
    (empty when the run passes). *)

type t = {
  table : Tbl.t;
  json : string;
  host : (string * Sky_trace.Json.t) list;
  failed : string list;
}

(* A paper table or figure: its JSON is the table's, and it gates nothing. *)
let of_table table = { table; json = Tbl.to_json table; host = []; failed = [] }

(* [checks] pairs each acceptance check's name with whether it holds. *)
let make ?(host = []) ~checks table json =
  {
    table;
    json;
    host;
    failed = List.filter_map (fun (name, ok) -> if ok then None else Some name) checks;
  }
