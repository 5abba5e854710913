open Sky_ukernel

type stats = {
  mutable attempts : int;
  mutable retried_ok : int;
  mutable degraded : int;
  mutable lost : int;
  mutable restarts : int;
}

let create_stats () =
  { attempts = 0; retried_ok = 0; degraded = 0; lost = 0; restarts = 0 }

(* Finagle-style retry budget: every fresh call deposits [ratio] tokens
   (clamped to [cap]), every retry withdraws one. Under overload most
   calls fail, deposits dry up, and retries are refused instead of
   multiplying the offered load — the amplification limiter. The budget
   also owns the jitter stream: decorrelated backoff, deterministic
   because the simulation is single-threaded. *)
let ratio = 0.2
let cap = 32.0

type budget = {
  b_rng : Sky_sim.Rng.t;
  mutable b_tokens : float;
  mutable b_withdrawn : int;
  mutable b_refused : int;
}

let budget ~seed =
  {
    b_rng = Sky_sim.Rng.create ~seed:(seed lxor 0x5e77b);
    b_tokens = cap /. 2.0;
    b_withdrawn = 0;
    b_refused = 0;
  }

let budget_refused b = b.b_refused
let budget_withdrawn b = b.b_withdrawn

let deposit b =
  b.b_tokens <- Float.min cap (b.b_tokens +. ratio)

let try_withdraw b =
  if b.b_tokens >= 1.0 then begin
    b.b_tokens <- b.b_tokens -. 1.0;
    b.b_withdrawn <- b.b_withdrawn + 1;
    true
  end
  else begin
    b.b_refused <- b.b_refused + 1;
    false
  end

let bump stats f = match stats with Some s -> f s | None -> ()

(* Base backoff in cycles: attempt [n] waits [backoff lsl n]. *)
let backoff = 2000

(* One attempt and, on failure, the backoff and recovery before the
   next: a toplevel loop, so a call builds no closure. *)
let rec attempt ~max_attempts stats budget timeout on_crash sb cpu ~core
    ~client ~server_id msg n =
  bump stats (fun s -> s.attempts <- s.attempts + 1);
  let degraded0 = Subkernel.degraded_calls sb in
  match Subkernel.call sb ~core ~client ~server_id ~timeout msg with
  | reply ->
    if n > 0 then bump stats (fun s -> s.retried_ok <- s.retried_ok + 1);
    if Subkernel.degraded_calls sb > degraded0 then
      bump stats (fun s -> s.degraded <- s.degraded + 1);
    reply
  | exception (Subkernel.Failed (Subkernel.Too_large _ | Subkernel.Denied _) as e) ->
    (* The message can never fit, the route is refused: retrying
       changes nothing. *)
    raise e
  | exception (Subkernel.Failed err as e) ->
    let refused =
      match budget with Some b -> not (try_withdraw b) | None -> false
    in
    if n + 1 >= max_attempts || refused then begin
      bump stats (fun s -> s.lost <- s.lost + 1);
      raise e
    end;
    (* Exponential backoff, charged as client compute; with a budget,
       decorrelated jitter spreads the storm's synchronized retries. *)
    let wait =
      let base = backoff lsl n in
      match budget with
      | Some b -> (base / 2) + Sky_sim.Rng.int b.b_rng (Int.max 1 base)
      | None -> base
    in
    Sky_sim.Cpu.charge cpu wait;
    Sky_trace.Trace.instant ~core ~cat:"recovery" "recovery.retry";
    (match err with
    | Subkernel.Crashed { server_id = sid } ->
      Subkernel.restart_server sb ~server_id:sid;
      bump stats (fun s -> s.restarts <- s.restarts + 1);
      on_crash sid
    | Subkernel.Revoked { server_id = sid } ->
      (* An aborted direct call revoked the binding: re-establish it
         (a top-level revocation degrades inside Subkernel.call and
         never reaches this handler). *)
      Subkernel.rebind sb client ~server_id:sid
    | Subkernel.Timeout _ | Subkernel.Too_large _ | Subkernel.Denied _ -> ());
    attempt ~max_attempts stats budget timeout on_crash sb cpu ~core ~client
      ~server_id msg (n + 1)

let call ?(max_attempts = 4) ?stats ?budget ~timeout ?(on_crash = fun _ -> ()) sb ~core
    ~client ~server_id msg =
  let cpu = Kernel.cpu (Subkernel.kernel sb) ~core in
  (match budget with Some b -> deposit b | None -> ());
  attempt ~max_attempts stats budget timeout on_crash sb cpu ~core ~client
    ~server_id msg 0
