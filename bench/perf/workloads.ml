(** The four workloads. One call to a workload's [round] builds a fresh
    stack from the round's seed, runs it, checks its outputs and
    returns what was observed. Sizes are constants here, never flags.

    Each round times two phases through a {!meter}: set-up (building
    stacks, warming rigs, the overload saturation probe) and the timed
    run. With a tracer, the round drives the library's run loops itself
    and wraps each layer call in a span; its simulated digest must equal
    the untraced round's. *)

open Sky_sim
open Skyperf_lib
module Kernel = Sky_ukernel.Kernel
module Subkernel = Sky_core.Subkernel
module Notification = Sky_kernels.Notification
module H = Sky_trace.Histogram
open Sky_net

(* ---- host metering ---- *)

type meter = {
  mutable setup_ns : int list;  (** one entry per stack built *)
  mutable run_ns : int;  (** the timed run *)
  mutable seq_ns : int;  (** cluster only: the Seq engine's run *)
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable ref_ns : int;  (** {!Hostref.time} next to this round *)
}

let meter () =
  {
    setup_ns = [];
    run_ns = 0;
    seq_ns = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
    ref_ns = Hostref.nominal_ns;
  }

let setup m f =
  let t0 = Spans.now () in
  let v = f () in
  m.setup_ns <- (Spans.now () - t0) :: m.setup_ns;
  v

(* Time [f] and charge its allocation to the round; returns the host ns. *)
let metered m f =
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now () in
  f ();
  let ns = Spans.now () - t0 in
  let g1 = Gc.quick_stat () in
  m.minor_words <- m.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  m.promoted_words <- m.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  m.minor_gcs <- m.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  m.major_gcs <- m.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  ns

let measure m f = m.run_ns <- m.run_ns + metered m f

(* ---- what a round observed ---- *)

type round = {
  ops : int;  (** operations attempted in the timed run *)
  gc_ops : int;  (** operations simulated while allocation was metered *)
  ok : int;  (** operations that succeeded (shed and 403 do not) *)
  wrong : int;  (** operations whose outcome failed a correctness check *)
  sim_cycles : int;  (** numerator of [sim_cycles_per_op] *)
  sim_ops : int;  (** its denominator *)
  lat : latency;  (** simulated latency, cycles *)
  counters : (string * int) list;  (** raw layer counters, summed over the round *)
  checks : (string * bool) list;
  digest : string;  (** everything simulated, for traced = untraced *)
  host : (string * float) list;  (** traced rounds: loop-level host figures *)
}

(* Per-call latencies are measured here exactly; the serving stacks
   only expose their load generator's log-bucketed histogram. *)
and latency = Exact of int array | Hist of H.t

let merge_latency = function
  | Exact _ :: _ as ls ->
    Exact (Array.concat (List.map (function Exact a -> a | Hist _ -> [||]) ls))
  | ls ->
    let h = H.create () in
    List.iter (function Hist x -> H.merge ~into:h x | Exact _ -> ()) ls;
    Hist h

let latency_count = function Exact a -> Array.length a | Hist h -> H.count h

let latency_percentile lat ~p =
  match lat with
  | Exact [||] -> 0.0
  | Exact a -> Stats.percentile (Array.map float_of_int a) ~p
  | Hist h -> Stats.hist_percentile h ~p

let digest_of buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let add_hist buf h =
  Printf.bprintf buf "n=%d p50=%d p99=%d p999=%d max=%d\n" (H.count h) (H.p50 h)
    (H.p99 h) (H.p999 h) (H.max_value h)

(* Machine-level counters: cache/TLB footprints and PMU events summed
   over cores. Rounds report deltas over the timed run. *)
let pmu_events =
  Pmu.
    [
      Vmfunc_exec; Wrpkru_exec; Syscall_exec; Cr3_write; Ipi_sent; Ipc_roundtrip;
      Psc_hit; Psc_miss; Ept_walk_cache_hit; Ept_walk_cache_miss; Hot_line_hit;
      Walk_cycles; Vm_exit; Instruction;
    ]

let machine_counters m =
  let cores = List.init (Machine.n_cores m) (Machine.core m) in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cores in
  let fp f = sum (fun c -> f (Cpu.footprint c)) in
  [
    ("l1d_miss", fp (fun f -> f.Cpu.l1d_miss));
    ("l2_miss", fp (fun f -> f.Cpu.l2_miss));
    ("l3_miss", fp (fun f -> f.Cpu.l3_miss));
    ("dtlb_miss", fp (fun f -> f.Cpu.dtlb_miss));
    ("itlb_miss", fp (fun f -> f.Cpu.itlb_miss));
  ]
  @ List.map (fun e -> (Pmu.name e, sum (fun c -> Pmu.read (Cpu.pmu c) e))) pmu_events

let add_machine buf m =
  for c = 0 to Machine.n_cores m - 1 do
    let cpu = Machine.core m c in
    Printf.bprintf buf "core %d cycles=%d fp=%x pmu=" c (Cpu.cycles cpu)
      (Hashtbl.hash (Cpu.footprint cpu));
    List.iter (fun e -> Printf.bprintf buf "%d," (Pmu.read (Cpu.pmu cpu) e)) pmu_events;
    Buffer.add_char buf '\n'
  done

let delta before after = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

let sum_counters ls =
  List.fold_left
    (fun acc l ->
      List.fold_left
        (fun acc (k, v) ->
          match List.assoc_opt k acc with
          | Some x -> (k, x + v) :: List.remove_assoc k acc
          | None -> acc @ [ (k, v) ])
        acc l)
    [] ls

(* Serving-stack counters from the library's public accessors. *)
let stack_counters ~sb ~mesh ~httpd ~nic =
  let opt f = function None -> 0 | Some x -> f x in
  let note = Sky_mesh.Endpoint.note (Httpd.endpoint httpd) in
  let queues f =
    let s = ref 0 in
    for queue = 0 to Nic.n_queues nic - 1 do
      s := !s + f nic ~queue
    done;
    !s
  in
  [
    ("crossings", opt Subkernel.calls sb);
    ("degraded", opt Subkernel.degraded_calls sb);
    ("resolves", opt Sky_mesh.Mesh.resolves mesh);
    ("cache_hits", opt Sky_mesh.Mesh.cache_hits mesh);
    ("note_signals", Notification.signals note);
    ("note_waits", Notification.waits note);
    ("note_ipis", Notification.ipis note);
    ("rx_pkts", queues Nic.rx_pkts);
    ("irqs", queues Nic.irqs_raised);
    ("nic_dropped", Nic.dropped nic);
    ("steals", Httpd.steals httpd);
    ("shed_queue", Httpd.shed_queue httpd);
    ("shed_expired", Httpd.shed_expired httpd);
    ("batches", Httpd.batches httpd);
    ("batched_ops", Httpd.batched_ops httpd);
  ]

let web_counters w =
  machine_counters (Web.kernel w).Kernel.machine
  @ stack_counters ~sb:(Web.subkernel w) ~mesh:(Web.mesh w) ~httpd:(Web.httpd w)
      ~nic:(Web.nic w)

(* ---- calls: one closed-loop caller per transport ---- *)

let calls_warm = 50
let calls_measured = 8_000
let ws_pages = 96
let server_pages = 4

let transports =
  [
    ("vmfunc", Some Sky_core.Backend.Vmfunc);
    ("mpk", Some Sky_core.Backend.Mpk);
    ("syscall", Some Sky_core.Backend.Syscall);
    ("ipc", None);
  ]

(* The pingpong rig: a client whose 96-page working set exceeds the
   64-entry dTLB reads every page, then calls a server that touches 4
   pages of its own and echoes the message. Built exactly as the gated
   pingpong experiment builds it, so cycles per call reproduce
   bench/budgets.json and BENCH_matrix.json. *)
let calls_transport m ~seed ~tr ~deltas ~buf ~index (tname, backend) =
  let sp_translate, sp_call, sp_handler, sp_round =
    match tr with
    | None -> (0, 0, 0, 0)
    | Some sp ->
      ( Spans.name sp "mmu.translate",
        Spans.name sp (if backend = None then "kernels.ipc_call" else "core.direct_call"),
        Spans.name sp "handler",
        Spans.name sp "calls.call" )
  in
  let machine, one =
    setup m @@ fun () ->
    let machine = Machine.create ~cores:2 ~mem_mib:128 () in
    let kernel = Kernel.create machine in
    let sb = Option.map (fun backend -> Subkernel.init ~backend ~seed kernel) backend in
    let client = Kernel.spawn kernel ~name:"client" in
    let server = Kernel.spawn kernel ~name:"server" in
    let vcpu = Kernel.vcpu kernel ~core:0 in
    let mem = Kernel.mem kernel in
    let client_ws = Kernel.map_anon kernel client (ws_pages * 4096) in
    let server_ws = Kernel.map_anon kernel server (server_pages * 4096) in
    let read =
      match tr with
      | None -> fun va -> ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va)
      | Some sp ->
        fun va ->
          Spans.enter sp sp_translate ~id:(-1);
          ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va);
          ignore (Spans.leave sp)
    in
    let handler ~core:_ msg =
      (match tr with Some sp -> Spans.enter sp sp_handler ~id:(-1) | None -> ());
      for page = 0 to server_pages - 1 do
        read (server_ws + (page * 4096))
      done;
      (match tr with Some sp -> ignore (Spans.leave sp) | None -> ());
      msg
    in
    let call =
      match sb with
      | Some sb ->
        let sid = Subkernel.register_server sb server handler in
        Subkernel.register_client_to_server sb client ~server_id:sid;
        fun msg -> Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg
      | None ->
        let ipc = Sky_kernels.Ipc.create kernel in
        let ep = Sky_kernels.Ipc.register ipc server handler in
        fun msg -> Sky_kernels.Ipc.call ipc ~core:0 ~client ep msg
    in
    let call =
      match tr with
      | None -> call
      | Some sp ->
        fun msg ->
          Spans.enter sp sp_call ~id:(-1);
          let r = call msg in
          ignore (Spans.leave sp);
          r
    in
    Kernel.context_switch kernel ~core:0 client;
    Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
    let msg = Bytes.create 8 in
    (* Returns whether the reply echoes the request. *)
    let one id =
      let want = Int64.of_int ((seed lsl 24) lor id) in
      Bytes.set_int64_le msg 0 want;
      for page = 0 to ws_pages - 1 do
        read (client_ws + (page * 4096))
      done;
      let reply = call msg in
      Bytes.length reply = 8 && Bytes.get_int64_le reply 0 = want
    in
    for i = 1 to calls_warm do
      ignore (one i)
    done;
    (machine, one)
  in
  let cpu = Machine.core machine 0 in
  let echoed = ref 0 in
  let before = machine_counters machine in
  let t0 = Cpu.cycles cpu in
  measure m (fun () ->
      for i = 0 to calls_measured - 1 do
        let id = (index * calls_measured) + i in
        (match tr with Some sp -> Spans.enter sp sp_round ~id | None -> ());
        let c0 = Cpu.cycles cpu in
        if one id then incr echoed;
        deltas.(id) <- Cpu.cycles cpu - c0;
        match tr with Some sp -> ignore (Spans.leave sp) | None -> ()
      done);
  let cycles = Cpu.cycles cpu - t0 in
  Printf.bprintf buf "%s cycles=%d echoed=%d\n" tname cycles !echoed;
  add_machine buf machine;
  let counters =
    (Printf.sprintf "calls.%s.cycles" tname, cycles) :: delta before (machine_counters machine)
  in
  (cycles, !echoed, counters)

let calls_round m ~seed ~tr =
  let ops = List.length transports * calls_measured in
  let deltas = Array.make ops 0 and buf = Buffer.create 1024 in
  let per =
    List.mapi (fun index t -> calls_transport m ~seed ~tr ~deltas ~buf ~index t) transports
  in
  let echoed = List.fold_left (fun a (_, e, _) -> a + e) 0 per in
  {
    ops;
    gc_ops = ops;
    ok = echoed;
    wrong = ops - echoed;
    sim_cycles = List.fold_left (fun a (c, _, _) -> a + c) 0 per;
    sim_ops = ops;
    lat = Exact deltas;
    counters = sum_counters (List.map (fun (_, _, c) -> c) per);
    checks = [ ("calls.every_reply_echoes", echoed = ops) ];
    digest = digest_of buf;
    host = [];
  }

(* ---- web and overload: the serving stack ---- *)

(* The run loop the library's [Web.run]/[Web.run_open] execute, driven
   from here so each step can be timed: [Machine.run_until] over
   wrapped steps, after the same preamble. *)
let traced_loop tr ~machine ~workers ~cores ~step =
  let sp_loop = Spans.name tr "sim.run_loop" in
  let sp_httpd = Spans.name tr "net.httpd_step" in
  let sp_pump = Spans.name tr "net.openloop_step" in
  let steps = ref 0 and progress = ref 0 and httpd_ns = ref [] in
  let step ~core =
    incr steps;
    let httpd = core < workers in
    Spans.enter tr (if httpd then sp_httpd else sp_pump) ~id:(-1);
    let r = step ~core in
    let ns = Spans.leave tr in
    if httpd then httpd_ns := float_of_int ns :: !httpd_ns;
    if r = Machine.Progress then incr progress;
    r
  in
  let run = Machine.start_run machine ~cores in
  Spans.span tr sp_loop (fun () ->
      match Machine.run_until machine run ~step ~until:max_int with
      | `Done -> ()
      | `Paused -> assert false (* no core's clock can reach max_int *));
  let httpd_ns = Array.of_list !httpd_ns in
  let pct p = if httpd_ns = [||] then 0.0 else Stats.percentile httpd_ns ~p in
  [
    ("steps", float_of_int !steps);
    ("progress_steps", float_of_int !progress);
    ("httpd_step_p50_ns", pct 50.0);
    ("httpd_step_p99_ns", pct 99.0);
  ]

let elapsed_since machine ~start ~workers =
  let e = ref 1 in
  for core = 0 to workers - 1 do
    e := max !e (Cpu.cycles (Machine.core machine core) - start)
  done;
  !e

let web_workers = 8
let web_conns = 120
let web_requests_per_conn = 100

let web_round m ~seed ~tr =
  let w =
    setup m (fun () ->
        Web.build ~seed ~cores:web_workers ~workers:web_workers ~conns:web_conns
          ~requests_per_conn:web_requests_per_conn ~transport:Web.Skybridge ())
  in
  let machine = (Web.kernel w).Kernel.machine in
  let lg = Web.loadgen w in
  let before = web_counters w in
  let elapsed, host =
    match tr with
    | None ->
      measure m (fun () -> Web.run w);
      (Web.elapsed w, [])
    | Some tr ->
      let result = ref (0, []) in
      measure m (fun () ->
          Machine.sync_cores machine;
          let start = Cpu.cycles (Machine.core machine 0) in
          Loadgen.start lg ~at:(start + 500);
          let host =
            traced_loop tr ~machine ~workers:web_workers
              ~cores:(List.init web_workers Fun.id)
              ~step:(Httpd.step (Web.httpd w))
          in
          result := (elapsed_since machine ~start ~workers:web_workers, host));
      !result
  in
  let responses = Loadgen.responses lg and errors = Loadgen.errors lg in
  let expected = Loadgen.expected lg in
  let hist = Loadgen.latencies lg in
  let buf = Buffer.create 1024 in
  add_machine buf machine;
  Printf.bprintf buf "served=%d errors=%d elapsed=%d " responses errors elapsed;
  add_hist buf hist;
  {
    ops = expected;
    gc_ops = expected;
    ok = responses - errors;
    wrong = errors + (expected - responses);
    sim_cycles = elapsed;
    sim_ops = responses;
    lat = Hist hist;
    counters = delta before (web_counters w);
    checks =
      [ ("web.responses_eq_expected", responses = expected); ("web.zero_errors", errors = 0) ];
    digest = digest_of buf;
    host;
  }

let ol_workers = 3
let ol_tenants = 32
let ol_total = 16_000
let ol_queue_cap = 8
let ol_batch_max = 4

(* The closed-loop saturation probe of the overload experiment: its
   mean completion gap fixes the offered rate (2x saturation) and TTL. *)
let saturation_gap ~seed =
  let t =
    Web.build ~seed ~cores:ol_workers ~conns:(16 * ol_workers) ~requests_per_conn:6
      ~workers:ol_workers ~transport:Web.Skybridge ()
  in
  Web.run t;
  max 1 (Web.elapsed t / max 1 (Loadgen.responses (Web.loadgen t)))

let overload_round m ~seed ~tr =
  let o =
    setup m (fun () ->
        let sat_gap = saturation_gap ~seed in
        let ttl = 12 * ol_queue_cap * ol_workers * sat_gap in
        Web.build_open ~seed ~tenants:ol_tenants ~mean_gap:(max 1 (sat_gap / 2))
          ~total:ol_total ~workers:ol_workers
          ~admission:
            {
              Httpd.a_queue_cap = Some ol_queue_cap;
              a_default_ttl = Some ttl;
              a_batch_max = ol_batch_max;
            }
          ~ttl ~transport:Web.Skybridge ())
  in
  let machine = o.Web.o_machine and ol = o.Web.o_ol in
  let counters () =
    machine_counters machine
    @ stack_counters ~sb:o.Web.o_sb ~mesh:o.Web.o_mesh ~httpd:o.Web.o_httpd ~nic:o.Web.o_nic
    @ [ ("churns", Openloop.churns ol) ]
  in
  let before = counters () in
  let host =
    match tr with
    | None ->
      measure m (fun () -> Web.run_open o);
      []
    | Some tr ->
      let host = ref [] in
      measure m (fun () ->
          Machine.sync_cores machine;
          let start = Cpu.cycles (Machine.core machine 0) in
          Openloop.start ol ~at:(start + 500);
          host :=
            traced_loop tr ~machine ~workers:ol_workers
              ~cores:(List.init (ol_workers + 1) Fun.id)
              ~step:(fun ~core ->
                if core < ol_workers then Httpd.step o.Web.o_httpd ~core
                else Openloop.step ol ~now:(Cpu.cycles (Machine.core machine core)));
          o.Web.o_elapsed <- elapsed_since machine ~start ~workers:ol_workers);
      !host
  in
  let offered = Openloop.offered ol and good = Openloop.ok ol in
  let shed = Openloop.shed ol and shed_wire = Openloop.shed_wire ol in
  let unservable = Openloop.unservable ol and corrupt = Openloop.corrupt ol in
  let accounted = offered = good + shed + shed_wire + unservable + corrupt in
  let hist = Openloop.latencies ol in
  let buf = Buffer.create 1024 in
  add_machine buf machine;
  Printf.bprintf buf "offered=%d ok=%d shed=%d wire=%d unservable=%d corrupt=%d elapsed=%d "
    offered good shed shed_wire unservable corrupt o.Web.o_elapsed;
  add_hist buf hist;
  {
    ops = ol_total;
    gc_ops = ol_total;
    ok = good;
    wrong = ol_total - (good + shed + shed_wire + unservable);
    sim_cycles = o.Web.o_elapsed;
    sim_ops = good;
    lat = Hist hist;
    counters = delta before (counters ());
    checks =
      [
        ("overload.all_offered", Openloop.finished ol && offered = ol_total);
        ("overload.accounting_exact", accounted);
        ("overload.zero_corrupt", corrupt = 0);
      ];
    digest = digest_of buf;
    host;
  }

(* ---- cluster: Seq vs Par over identical clusters ---- *)

let cl_shards = 4
let cl_workers = 2
let cl_conns = 60
let cl_requests_per_conn = 40
let cl_jobs = 2

let build_cluster ~seed =
  Cluster_web.build ~seed ~conns:cl_conns ~requests_per_conn:cl_requests_per_conn
    ~shards:cl_shards ~workers:cl_workers ~transport:Web.Skybridge ()

let cluster_counters cl =
  sum_counters (List.init cl_shards (fun i -> web_counters (Cluster_web.shard_web cl i)))

let cluster_hist cl =
  let h = H.create () in
  for i = 0 to cl_shards - 1 do
    H.merge ~into:h (Loadgen.latencies (Web.loadgen (Cluster_web.shard_web cl i)))
  done;
  h

(* The lanes [Cluster_web.run] builds, rebuilt here around a clock:
   each lane's advance is timed on whichever domain runs it, and the
   boundary commit (single-threaded, after the join) turns the quantum
   into spans and barrier figures. Gossip is not recorded, so traced
   digests are compared with [~gossip:false]. *)
let traced_cluster tr cl =
  let n = Cluster_web.n_shards cl in
  let sessions = Array.make n None in
  let l_start = Array.make n 0 and l_stop = Array.make n 0 in
  let lane i =
    {
      Quantum.l_name = Printf.sprintf "shard%d" i;
      l_advance =
        (fun ~until ->
          let t0 = Spans.now () in
          let r =
            Scopes.enter (Cluster_web.shard_scope cl i) (fun () ->
                let web = Cluster_web.shard_web cl i in
                let s =
                  match sessions.(i) with
                  | Some s -> s
                  | None ->
                    let s = Web.start_run web in
                    sessions.(i) <- Some s;
                    s
                in
                Web.advance web s ~until)
          in
          l_start.(i) <- t0;
          l_stop.(i) <- Spans.now ();
          r);
    }
  in
  let sp_quantum = Spans.name tr "quantum.quantum" in
  let sp_lane = Spans.name tr "quantum.lane_advance" in
  let q_start = ref (Spans.now ()) in
  let barrier = ref 0.0 and imbalance = ref 0.0 and quanta = ref 0 in
  let commit ~boundary:_ =
    let stop = Spans.now () in
    let ran = List.filter (fun i -> l_stop.(i) > !q_start) (List.init n Fun.id) in
    let durs = List.map (fun i -> l_stop.(i) - l_start.(i)) ran in
    let slowest = List.fold_left max 0 durs in
    let mean =
      float_of_int (List.fold_left ( + ) 0 durs) /. float_of_int (max 1 (List.length durs))
    in
    (* self time of the quantum: its wall time minus the union of the
       lane intervals, which overlap across domains *)
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (s, e) ->
          let s = max s reach in
          if e > s then (acc + (e - s), e) else (acc, reach))
        (0, 0)
        (List.sort compare (List.map (fun i -> (l_start.(i), l_stop.(i))) ran))
    in
    let wall = stop - !q_start in
    let parent =
      Spans.record tr ~name:sp_quantum ~start:!q_start ~stop ~self:(wall - covered)
        ~parent:(-1) ~id:!quanta ~tid:0
    in
    List.iter
      (fun i ->
        ignore
          (Spans.record tr ~name:sp_lane ~start:l_start.(i) ~stop:l_stop.(i)
             ~self:(l_stop.(i) - l_start.(i)) ~parent ~id:!quanta ~tid:(i + 1)))
      ran;
    barrier := !barrier +. float_of_int (wall - slowest);
    if mean > 0.0 then imbalance := !imbalance +. (float_of_int slowest /. mean);
    incr quanta;
    q_start := Spans.now ()
  in
  let q =
    Quantum.run (Quantum.Par { jobs = cl_jobs })
      ~lanes:(List.init n lane) ~commit ()
  in
  ( q,
    [
      ("quanta", float_of_int !quanta);
      ("barrier_wait_ns_sum", !barrier);
      ("imbalance_sum", !imbalance);
    ] )

(* Untraced: a Seq cluster and a Par cluster. Traced: only the Par
   cluster, on the lanes above; its digest is checked against the
   untraced round's instead. *)
let cluster_round m ~seed ~tr =
  let seq_cl =
    match tr with None -> Some (setup m (fun () -> build_cluster ~seed)) | Some _ -> None
  in
  let par_cl = setup m (fun () -> build_cluster ~seed) in
  let before = cluster_counters par_cl in
  Option.iter
    (fun a ->
      m.seq_ns <- m.seq_ns + metered m (fun () -> ignore (Cluster_web.run a Quantum.Seq)))
    seq_cl;
  let quanta, host =
    match tr with
    | None ->
      let q = ref 0 in
      measure m (fun () -> q := Cluster_web.run par_cl (Quantum.Par { jobs = cl_jobs }));
      (!q, [])
    | Some tr ->
      let r = ref (0, []) in
      measure m (fun () -> r := traced_cluster tr par_cl);
      !r
  in
  let expected = cl_shards * cl_conns * cl_requests_per_conn in
  let served = Cluster_web.served par_cl and errors = Cluster_web.errors par_cl in
  let same_digest =
    match seq_cl with
    | None -> true
    | Some a -> Cluster_web.digest a = Cluster_web.digest par_cl
  in
  let seq_ok =
    match seq_cl with
    | None -> true
    | Some a -> Cluster_web.served a = expected && Cluster_web.errors a = 0
  in
  let elapsed_sum = ref 0 in
  for i = 0 to cl_shards - 1 do
    elapsed_sum := !elapsed_sum + Web.elapsed (Cluster_web.shard_web par_cl i)
  done;
  {
    ops = expected;
    gc_ops = (if seq_cl = None then 1 else 2) * expected;
    ok = served - errors;
    wrong = errors + (expected - served);
    sim_cycles = !elapsed_sum;
    sim_ops = served;
    lat = Hist (cluster_hist par_cl);
    counters = ("quanta", quanta) :: delta before (cluster_counters par_cl);
    checks =
      [
        ("cluster.responses_eq_expected", served = expected && seq_ok);
        ("cluster.zero_errors", errors = 0);
        ("cluster.seq_digest_eq_par_digest", same_digest);
      ];
    digest = Digest.to_hex (Digest.string (Cluster_web.digest ~gossip:false par_cl));
    host;
  }

type t = {
  name : string;
  sample_rounds : int;
      (** rounds whose simulated results make the simulated metrics and
          layer counters: enough that seed-to-seed variation of the tail
          percentiles stays within a few percent *)
  round : meter -> seed:int -> tr:Spans.t option -> round;
}

(* Why each workload was chosen is recorded in BENCHMARK.json and
   README.md. *)
let all =
  [
    { name = "calls"; sample_rounds = 3; round = calls_round };
    { name = "web"; sample_rounds = 12; round = web_round };
    { name = "overload"; sample_rounds = 24; round = overload_round };
    { name = "cluster"; sample_rounds = 12; round = cluster_round };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
