(** Figures 9–11: YCSB-A throughput vs number of client threads for
    seL4, Fiasco.OC and Zircon, each as st / mt / SkyBridge. *)

open Sky_harness
open Sky_ukernel

let paper =
  (* variant -> series name -> throughput at 1/2/4/8 threads *)
  [
    (Config.Sel4, "st", [ 9627.; 3748.; 1863.; 1387. ]);
    (Config.Sel4, "mt", [ 9660.; 4456.; 2182.; 1489. ]);
    (Config.Sel4, "SkyBridge", [ 17575.; 8321.; 6059.; 2122. ]);
    (Config.Fiasco, "st", [ 3644.; 2342.; 1365.; 786. ]);
    (Config.Fiasco, "mt", [ 4245.; 2933.; 1640.; 940. ]);
    (Config.Fiasco, "SkyBridge", [ 8080.; 4811.; 2970.; 2607. ]);
    (Config.Zircon, "st", [ 2466.; 1137.; 743.; 75. ]);
    (Config.Zircon, "mt", [ 4181.; 1602.; 1187.; 27. ]);
    (Config.Zircon, "SkyBridge", [ 11296.; 6162.; 3630.; 2060. ]);
  ]

let thread_counts = [ 1; 2; 4; 8 ]

(* Scaled-down workload sizes keep the bench fast; the paper loads
   10,000 records. *)
let default_records = 1000
let default_ops = 50

let series ~variant ~transport ~records ~ops_per_thread =
  let stack = Stack.build ~variant ~transport () in
  let wl =
    Sky_ycsb.Workload.create stack.Stack.kernel stack.Stack.db ~records
      ~value_size:100
  in
  Sky_ycsb.Workload.load wl ~core:0;
  List.map
    (fun threads ->
      Stack.spread_client stack ~threads;
      Sky_ycsb.Workload.run wl ~kind:Sky_ycsb.Workload.A ~threads ~ops_per_thread)
    thread_counts

let run_variant ?(records = default_records) ?(ops_per_thread = default_ops)
    variant =
  let figno =
    match variant with
    | Config.Sel4 -> 9
    | Config.Fiasco -> 10
    | Config.Zircon | Config.Linux -> 11
  in
  let configs =
    [ ("st", Stack.Ipc { st = true }); ("mt", Stack.Ipc { st = false });
      ("SkyBridge", Stack.Skybridge) ]
  in
  let rows =
    List.map
      (fun (name, transport) ->
        let ours = series ~variant ~transport ~records ~ops_per_thread in
        let ref_series =
          let _, _, v =
            List.find (fun (v, n, _) -> v = variant && n = name) paper
          in
          v
        in
        Printf.sprintf "%s-%s" (Config.variant_name variant) name
        :: List.map2
             (fun p o -> Printf.sprintf "%.0f/%s" p (Tbl.fmt_ops o))
             ref_series ours)
      configs
  in
  Tbl.make
    ~title:
      (Printf.sprintf "Figure %d: YCSB-A throughput, %s (ops/s, paper/ours)"
         figno (Config.variant_name variant))
    ~header:[ "series"; "1 thread"; "2 threads"; "4 threads"; "8 threads" ]
    ~notes:
      [
        Printf.sprintf
          "scaled workload: %d records, %d ops/thread (paper: 10,000 \
           records); shape targets: SkyBridge highest, throughput falls \
           with threads (xv6fs big lock)"
          records ops_per_thread;
      ]
    rows

let run_fig9 () = run_variant Config.Sel4
let run_fig10 () = run_variant Config.Fiasco
let run_fig11 () = run_variant Config.Zircon
