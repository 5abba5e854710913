(** Benchmark artifacts: every machine-readable result a CI run should
    archive is written as [BENCH_<name>.json] in the working directory,
    so the workflow can glob one pattern and benchmark trajectories can
    be compared across commits. *)

let path_of name = Printf.sprintf "BENCH_%s.json" name

(* One shape for every artifact: [{"host":{"seconds":S,...},"result":R}].
   [result] is the experiment's deterministic JSON, written byte for
   byte, so CI can diff it against the committed file. Everything that
   depends on the host — the wall-clock [seconds] of producing the
   result and any [host] facts the experiment reports — sits beside it
   under "host". *)
let write ~name ~seconds ~host result =
  let path = path_of name in
  let field (k, v) =
    Printf.sprintf ",%s:%s"
      (Sky_trace.Json.to_string (Sky_trace.Json.String k))
      (Sky_trace.Json.to_string v)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"host\":{\"seconds\":%.3f%s},\"result\":%s}\n" seconds
    (String.concat "" (List.map field host))
    result;
  close_out oc;
  path
