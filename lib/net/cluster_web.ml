(** A cluster of independent web-serving shards under the
    quantum-synchronized scheduler — the workload that buys true host
    parallelism.

    Each shard is a complete machine + skyhttpd + load-generator stack
    built and run inside its own {!Sky_sim.Scopes} bundle, so its
    tracer, fault engine and Accel epoch are private: during a quantum,
    nothing a shard touches is visible to any other shard, which is
    what lets {!Sky_sim.Quantum} advance shards on separate OCaml
    domains. The only cross-shard interaction is the boundary {e gossip}
    commit: after every quantum's barrier the cluster-wide served total
    is computed and recorded into each shard, single-threaded, in shard
    order, at a fixed virtual time — so it is bit-identical under [Seq]
    and [Par].

    {!digest} folds everything observable about a shard's world —
    per-core clocks and PMU vectors, cache footprints, serving counters,
    latency percentiles, fired faults, the trace stream, the gossip log
    — into a canonical string. Equality of digests between a [Seq] and
    a [Par] run (or runs with different quanta) is the determinism gate
    for the whole scheduler. *)

open Sky_sim

type 'h shard = {
  sh_id : int;
  sh_seed : int;
  sh_scope : Scopes.t;
  sh_web : 'h Web.t;
  mutable sh_session : Web.session option;
  mutable sh_gossip : (int * int) list;
      (** (boundary, cluster served total), newest first *)
}

type 'h t = {
  cl_shards : 'h shard array;
  cl_quantum : int;
  mutable cl_quanta : int;
}

let build ?(seed = 42) ?(quantum = Quantum.default_quantum) ?(conns = 12)
    ?(requests_per_conn = 2) ?prepare ~shards ~workers ~transport () =
  if shards <= 0 then invalid_arg "Cluster_web.build: shards <= 0";
  let mk i =
    (* Distinct per-shard seeds: shards model different machines serving
       different traffic, not replicas. *)
    let sseed = seed + (7919 * i) in
    let scope = Scopes.fresh ~seed:sseed () in
    let web =
      Scopes.enter scope (fun () ->
          let w =
            Web.build ~seed:sseed ~cores:workers ~conns
              ~requests_per_conn ~workers ~transport ()
          in
          (match prepare with None -> () | Some f -> f ~shard:i);
          w)
    in
    {
      sh_id = i;
      sh_seed = sseed;
      sh_scope = scope;
      sh_web = web;
      sh_session = None;
      sh_gossip = [];
    }
  in
  { cl_shards = Array.init shards mk; cl_quantum = quantum; cl_quanta = 0 }

let n_shards t = Array.length t.cl_shards
let quanta t = t.cl_quanta

let lane sh =
  {
    Quantum.l_name = Printf.sprintf "shard%d" sh.sh_id;
    l_advance =
      (fun ~until ->
        (* Runs on an arbitrary worker domain under [Par]: bind the
           shard's world first, every time. *)
        Scopes.enter sh.sh_scope (fun () ->
            let s =
              match sh.sh_session with
              | Some s -> s
              | None ->
                let s = Web.start_run sh.sh_web in
                sh.sh_session <- Some s;
                s
            in
            Web.advance sh.sh_web s ~until));
  }

(* The boundary gossip: cluster-wide served total, recorded into every
   shard. Runs single-threaded between quanta; shard order and virtual
   time are fixed, so the gossip stream each shard sees is engine-
   independent. *)
let commit t ~boundary =
  t.cl_quanta <- t.cl_quanta + 1;
  let total =
    Array.fold_left
      (fun acc sh -> acc + Loadgen.responses (Web.loadgen sh.sh_web))
      0 t.cl_shards
  in
  Array.iter
    (fun sh ->
      sh.sh_gossip <- (boundary, total) :: sh.sh_gossip;
      Scopes.enter sh.sh_scope (fun () ->
          Sky_trace.Trace.instant ~core:0 ~cat:"cluster"
            (Printf.sprintf "gossip served=%d" total)))
    t.cl_shards

let run t engine =
  Quantum.run ~quantum:t.cl_quantum engine
    ~lanes:(Array.to_list (Array.map lane t.cl_shards))
    ~commit:(fun ~boundary -> commit t ~boundary)
    ()

(* ---- equivalence digest ---- *)

let pmu_events =
  [
    Pmu.Ipi_sent; Pmu.Vm_exit; Pmu.Vmfunc_exec; Pmu.Syscall_exec;
    Pmu.Cr3_write; Pmu.Ipc_roundtrip; Pmu.Instruction; Pmu.Psc_hit;
    Pmu.Psc_miss; Pmu.Ept_walk_cache_hit; Pmu.Ept_walk_cache_miss;
    Pmu.Walk_cycles; Pmu.Wrpkru_exec;
  ]

let digest_shard ?(gossip = true) sh =
  Scopes.enter sh.sh_scope @@ fun () ->
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let w = sh.sh_web in
  let m = (Web.kernel w).Sky_ukernel.Kernel.machine in
  add "shard %d seed %d\n" sh.sh_id sh.sh_seed;
  for c = 0 to Machine.n_cores m - 1 do
    let cpu = Machine.core m c in
    add "  core %d cycles=%d fp=%#x pmu=" c (Cpu.cycles cpu)
      (Hashtbl.hash (Cpu.footprint cpu));
    List.iter (fun e -> add "%d," (Pmu.read (Cpu.pmu cpu) e)) pmu_events;
    add "\n"
  done;
  let lg = Web.loadgen w in
  let h = Loadgen.latencies lg in
  let module H = Sky_trace.Histogram in
  add "  served=%d errors=%d elapsed=%d p50=%d p95=%d p99=%d p999=%d\n"
    (Loadgen.responses lg) (Loadgen.errors lg) (Web.elapsed w) (H.p50 h)
    (H.p95 h) (H.p99 h) (H.p999 h);
  List.iter
    (fun (site, n) -> add "  fault %s=%d\n" site n)
    (Sky_faults.Fault.fired_counts ());
  let trace_hash =
    List.fold_left
      (fun acc e -> (acc * 1000003) lxor Hashtbl.hash e)
      0
      (Sky_trace.Trace.events ())
  in
  add "  trace=%#x dropped=%d\n" trace_hash (Sky_trace.Trace.dropped ());
  if gossip then
    List.iter
      (fun (bd, tot) -> add "  gossip@%d=%d\n" bd tot)
      (List.rev sh.sh_gossip);
  Buffer.contents b

let digest ?gossip t =
  String.concat ""
    (Array.to_list (Array.map (digest_shard ?gossip) t.cl_shards))

let served t =
  Array.fold_left
    (fun acc sh -> acc + Loadgen.responses (Web.loadgen sh.sh_web))
    0 t.cl_shards

let errors t =
  Array.fold_left
    (fun acc sh -> acc + Loadgen.errors (Web.loadgen sh.sh_web))
    0 t.cl_shards

let shard_scope t i = t.cl_shards.(i).sh_scope
let shard_web t i = t.cl_shards.(i).sh_web
