type policy = Lazy_scheduling | Benno

let policy_name = function
  | Lazy_scheduling -> "lazy scheduling"
  | Benno -> "Benno scheduling"

type thread = { tid : int; mutable runnable : bool; mutable queued : bool }

let tid t = t.tid
let runnable t = t.runnable

type t = {
  policy : policy;
  mutable queue : thread list;  (** FIFO: head = next to run *)
  mutable examined : int;
  mutable queue_ops : int;
}

let queue_op_cost = 40 (* dequeue/enqueue: pointer surgery + accounting *)
let examine_cost = 15 (* look at one entry, test runnable *)

let create policy = { policy; queue = []; examined = 0; queue_ops = 0 }

let enqueue t cpu th =
  if not th.queued then begin
    t.queue <- t.queue @ [ th ];
    th.queued <- true;
    t.queue_ops <- t.queue_ops + 1;
    Sky_sim.Cpu.charge cpu queue_op_cost
  end

let dequeue_specific t cpu th =
  if th.queued then begin
    t.queue <- List.filter (fun x -> x != th) t.queue;
    th.queued <- false;
    t.queue_ops <- t.queue_ops + 1;
    Sky_sim.Cpu.charge cpu queue_op_cost
  end

let spawn_thread t ~tid =
  let th = { tid; runnable = true; queued = false } in
  t.queue <- t.queue @ [ th ];
  th.queued <- true;
  th

let block t cpu th =
  th.runnable <- false;
  match t.policy with
  | Benno -> dequeue_specific t cpu th
  | Lazy_scheduling -> (* the lazy part: leave the stale entry behind *) ()

let wake t cpu th =
  th.runnable <- true;
  match t.policy with
  | Benno -> enqueue t cpu th
  | Lazy_scheduling -> if not th.queued then enqueue t cpu th

let pick t cpu =
  let rec go () =
    match t.queue with
    | [] -> None
    | th :: rest ->
      t.examined <- t.examined + 1;
      Sky_sim.Cpu.charge cpu examine_cost;
      t.queue <- rest;
      th.queued <- false;
      t.queue_ops <- t.queue_ops + 1;
      Sky_sim.Cpu.charge cpu queue_op_cost;
      if th.runnable then Some th
      else (* lazy garbage collection of a stale entry *) go ()
  in
  go ()

let queue_length t = List.length t.queue
let examined t = t.examined
let queue_ops t = t.queue_ops
