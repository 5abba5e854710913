type t = {
  mem : Sky_mem.Phys_mem.t;
  alloc : Sky_mem.Frame_alloc.t;
  cores : Cpu.t array;
  l3 : Cache.t;
}

let create ?(cores = 8) ?(mem_mib = 256) () =
  if cores <= 0 then invalid_arg "Machine.create: cores <= 0";
  let mem =
    Sky_mem.Phys_mem.create ~frames:(mem_mib * 1024 * 1024 / Sky_mem.Phys_mem.frame_size)
  in
  let l3 = Cache.create ~size_bytes:(8 * 1024 * 1024) ~ways:16 ~line_bytes:64 in
  let t =
    {
      mem;
      alloc = Sky_mem.Frame_alloc.create mem;
      cores = Array.init cores (fun id -> Cpu.create ~id ~l3);
      l3;
    }
  in
  (* Tracing is keyed on simulated cycles: point the tracer's clock at
     this machine's per-core TSCs. Experiments build machines one at a
     time, so the latest machine owns the clock. *)
  Sky_trace.Trace.set_clock (fun core ->
      if core >= 0 && core < Array.length t.cores then Cpu.cycles t.cores.(core)
      else 0);
  (* The fault engine's At_cycle triggers read the same clock. *)
  Sky_faults.Fault.set_clock (fun core ->
      if core >= 0 && core < Array.length t.cores then Cpu.cycles t.cores.(core)
      else 0);
  t

let core t i = t.cores.(i)
let n_cores t = Array.length t.cores

let max_cycles t =
  Array.fold_left (fun acc c -> max acc (Cpu.cycles c)) 0 t.cores

let sync_cores t =
  let m = max_cycles t in
  Array.iter (fun c -> Cpu.advance_to c m) t.cores

(* ---- virtual-time interleaved multi-core run loop ---- *)

type step = Progress | Idle | Idle_until of int | Done

exception Stuck of string

(* Persistent state of one interleaved run, so the loop can be driven a
   quantum at a time ({!run_until}) by the parallel scheduler: which
   cores are still live and the idle-streak deadlock counter, which must
   survive quantum boundaries or a lost-wakeup spanning boundaries would
   never trip the guard. *)
type run = {
  r_cores : int array;
  r_finished : bool array;
  mutable r_idle_streak : int;
}

let start_run t ~cores =
  let cores = Array.of_list cores in
  if Array.length cores = 0 then invalid_arg "Machine.interleave: no cores";
  Array.iter
    (fun c ->
      if c < 0 || c >= Array.length t.cores then
        invalid_arg "Machine.interleave: core out of range")
    cores;
  {
    r_cores = cores;
    r_finished = Array.make (Array.length cores) false;
    r_idle_streak = 0;
  }

(* The next core to step: the live one furthest behind in virtual time
   among those below [until], lowest index on equal clocks — the
   interleaving rule that makes a single-threaded simulation behave like
   n concurrent cores. [-1] when every live core has reached [until],
   [-2] when none is live. A scan, not a list: this runs on every step. *)
let next_core t r ~until =
  let best = ref (-1) and best_cycles = ref until and live = ref false in
  for j = 0 to Array.length r.r_cores - 1 do
    if not r.r_finished.(j) then begin
      live := true;
      let c = Cpu.cycles t.cores.(r.r_cores.(j)) in
      if c < !best_cycles then begin
        best := j;
        best_cycles := c
      end
    end
  done;
  if !best >= 0 then !best else if !live then -1 else -2

(* The lowest clock among the live cores other than [i], parked ones
   included; [max_int] if there is none. *)
let lowest_other t r i =
  let lowest = ref max_int in
  for j = 0 to Array.length r.r_cores - 1 do
    if j <> i && not r.r_finished.(j) then begin
      let c = Cpu.cycles t.cores.(r.r_cores.(j)) in
      if c < !lowest then lowest := c
    end
  done;
  !lowest

let step_core t r ~step i =
  let cpu = t.cores.(r.r_cores.(i)) in
  let before = Cpu.cycles cpu in
  match step ~core:r.r_cores.(i) with
  | Progress -> r.r_idle_streak <- 0
  | Done ->
    r.r_finished.(i) <- true;
    r.r_idle_streak <- 0
  | Idle_until ts when ts > before ->
    Cpu.advance_to cpu ts;
    r.r_idle_streak <- 0
  | Idle | Idle_until _ ->
    (* Nothing to do at this virtual time: hop past the next-lowest live
       core (parked ones included — they are still events in this
       machine's future) so whoever can unblock us runs first. *)
    let next = lowest_other t r i in
    if next < max_int then Cpu.advance_to cpu (next + 1)
    else Cpu.charge cpu 64 (* lone core: poll tick *);
    r.r_idle_streak <- r.r_idle_streak + 1;
    (* Consecutive steps with neither progress nor fresh wakeup targets:
       the deadlock guard. Closed systems always have a next event, so
       hitting the bound means a step function lied about being Idle. *)
    if r.r_idle_streak > 64 * Array.length r.r_cores then
      raise
        (Stuck
           (Printf.sprintf
              "Machine.interleave: %d idle steps with no progress \
               (cores stuck at cycle %d)"
              r.r_idle_streak (Cpu.cycles cpu)))

(* Advance the run until every live core's clock has reached [until] (or
   its workload finished). The boundary only *parks* cores — a stepped
   core may overshoot [until] and is simply not stepped again this
   quantum — so for any boundary placement the scheduling decisions and
   per-core trajectories are bit-identical to an unbounded run: the
   lowest-cycle-first rule never runs a core at/past the boundary while
   another sits below it, which is exactly what parking enforces. *)
let rec run_until t r ~step ~until =
  match next_core t r ~until with
  | -2 -> `Done
  | -1 -> `Paused
  | i ->
    step_core t r ~step i;
    run_until t r ~step ~until

let interleave t ~cores ~step =
  let r = start_run t ~cores in
  while run_until t r ~step ~until:max_int = `Paused do
    ()
  done
