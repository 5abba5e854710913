(** The KV-pipeline experiments: Table 1 (processor-structure pollution),
    Figure 2 (Baseline/Delay/IPC/IPC-CrossCore latency vs key+value
    size) and Figure 8 (same plus the SkyBridge series). *)

open Sky_ukernel
open Sky_kvstore
open Sky_harness

let lens = [ 16; 64; 256; 1024 ]

(* A 4-core machine and the pipeline over [config]. *)
let make_pipeline config =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let sb = if config = Pipeline.Skybridge then Some (Sky_core.Subkernel.init kernel) else None in
  (machine, Pipeline.create ?sb kernel config)

let latency config ~ops ~len =
  let _, p = make_pipeline config in
  ignore (Pipeline.run p ~core:0 ~ops:(ops / 4) ~len) (* warmup *);
  Pipeline.run p ~core:0 ~ops ~len

(* ---- Table 1 ---- *)

let run_table1 () =
  let ops = 512 and len = 64 in
  let measure config =
    let machine, p = make_pipeline config in
    ignore (Pipeline.run p ~core:0 ~ops:64 ~len) (* warm *);
    let cpu = Sky_sim.Machine.core machine 0 in
    Sky_sim.Cpu.reset_stats cpu;
    ignore (Pipeline.run p ~core:0 ~ops ~len);
    Sky_sim.Cpu.footprint cpu
  in
  let fmt (fp : Sky_sim.Cpu.footprint) =
    [
      Tbl.fmt_int fp.Sky_sim.Cpu.l1i_miss;
      Tbl.fmt_int fp.Sky_sim.Cpu.l1d_miss;
      Tbl.fmt_int fp.Sky_sim.Cpu.l2_miss;
      Tbl.fmt_int fp.Sky_sim.Cpu.l3_miss;
      Tbl.fmt_int fp.Sky_sim.Cpu.itlb_miss;
      Tbl.fmt_int fp.Sky_sim.Cpu.dtlb_miss;
    ]
  in
  Tbl.make
    ~title:
      "Table 1: pollution of processor structures (misses during 512 KV ops)"
    ~header:[ "name"; "i-cache"; "d-cache"; "L2"; "L3"; "i-TLB"; "d-TLB" ]
    ~notes:
      [
        "paper (same order): Baseline 15/10624/13237/43/8/17; Delay \
         15/10639/13258/43/9/19; IPC 696/27054/15974/44/11/7832";
      ]
    [
      "Baseline" :: fmt (measure Pipeline.Baseline);
      "Delay" :: fmt (measure Pipeline.Delay);
      "IPC" :: fmt (measure Pipeline.Ipc_local);
    ]

(* ---- Figures 2 and 8 ---- *)

let paper_fig8 =
  (* len -> (baseline, delay, ipc, cross, skybridge) from Figure 8 *)
  [
    (16, (2707, 4735, 7929, 18895, 3512));
    (64, (3485, 5345, 8548, 19609, 4112));
    (256, (5884, 7828, 11025, 22162, 6413));
    (1024, (14652, 16906, 20577, 32061, 15378));
  ]

let run_fig ~with_skybridge () =
  let ops = 256 in
  let series =
    [ Pipeline.Baseline; Pipeline.Delay; Pipeline.Ipc_local; Pipeline.Ipc_cross ]
    @ (if with_skybridge then [ Pipeline.Skybridge ] else [])
  in
  let measured =
    List.map
      (fun config ->
        (config, List.map (fun len -> (len, latency config ~ops ~len)) lens))
      series
  in
  let rows =
    List.map
      (fun len ->
        let b, d, i, c, s =
          match List.assoc_opt len paper_fig8 with
          | Some v -> v
          | None -> (0, 0, 0, 0, 0)
        in
        let get config =
          match List.assoc_opt config measured with
          | Some l -> Tbl.fmt_int (List.assoc len l)
          | None -> "-"
        in
        [
          Printf.sprintf "%d B" len;
          Printf.sprintf "%d/%s" b (get Pipeline.Baseline);
          Printf.sprintf "%d/%s" d (get Pipeline.Delay);
          Printf.sprintf "%d/%s" i (get Pipeline.Ipc_local);
          Printf.sprintf "%d/%s" c (get Pipeline.Ipc_cross);
        ]
        @
        if with_skybridge then [ Printf.sprintf "%d/%s" s (get Pipeline.Skybridge) ]
        else [])
      lens
  in
  Tbl.make
    ~title:
      (if with_skybridge then
         "Figure 8: KV-store latency with SkyBridge (cycles, paper/ours)"
       else "Figure 2: KV-store latency (cycles, paper/ours)")
    ~header:
      ([ "key+value"; "Baseline"; "Delay"; "IPC"; "IPC-CrossCore" ]
      @ if with_skybridge then [ "SkyBridge" ] else [])
    ~notes:[ "each cell is paper/ours; 50% insert + 50% query (SS2.1.2)" ]
    rows

let run_fig2 () = run_fig ~with_skybridge:false ()
let run_fig8 () = run_fig ~with_skybridge:true ()
