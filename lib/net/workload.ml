(** Workload machinery shared by the closed-loop ({!Loadgen}) and
    open-loop ({!Openloop}) generators: the request mix, expected-result
    tracking, deterministic value synthesis, response classification and
    RSS-aware flow placement.

    Extracted from the closed-loop generator without changing any RNG
    draw order, so the existing web/chaos/mesh benches stay
    byte-identical. *)

open Sky_sim

type mix = { m_kv_get : int; m_kv_put : int; m_fs_get : int }

let default_mix = { m_kv_get = 6; m_kv_put = 2; m_fs_get = 2 }

type expect =
  | Stored
  | Value of bytes
  | File of bytes

(* Classification of one response against what the request should have
   produced. [Shed] is the admission-control outcome (503) — offered
   load the server refused, not a correctness failure. [Unservable] is
   the terminal denied-by-every-receiver outcome (403). *)
type verdict = Good | Shed | Unservable | Corrupt

(* ["v<flow>-<n>:"] then 32 printable pad bytes (so hexdumps stay
   readable), one [Rng.int _ 256] draw per pad byte as [Rng.bytes]
   draws them, written in place. *)
let value_bytes rng flow n =
  let head = Dec.length flow + Dec.length n + 3 in
  let v = Bytes.create (head + 32) in
  Bytes.set v 0 'v';
  let off = Dec.blit flow v 1 in
  Bytes.set v off '-';
  Bytes.set v (Dec.blit n v (off + 1)) ':';
  for i = head to head + 31 do
    Bytes.set v i (Char.chr (97 + (Rng.int rng 256 land 15)))
  done;
  v

let body_matches expect (resp : Http.response) =
  match expect with
  | Stored ->
    resp.Http.status = 200 && String.equal (Bytes.unsafe_to_string resp.Http.body) "stored"
  | Value v -> resp.Http.status = 200 && Bytes.equal resp.Http.body v
  | File data -> resp.Http.status = 200 && Bytes.equal resp.Http.body data

let classify expect (resp : Http.response) =
  if resp.Http.status = 503 then Shed
  else if resp.Http.status = 403 then Unservable
  else if body_matches expect resp then Good
  else Corrupt

(* Pick connection [i]'s flow id so RSS steers it to queue [i mod nq] —
   scan candidate ids (deterministically) until the hash cooperates. *)
let place_flows nic ~conns =
  let nq = Nic.n_queues nic in
  let next = ref 1 in
  Array.init conns (fun i ->
      let target = i mod nq in
      let rec hunt f =
        if Nic.queue_of_flow nic f = target then begin
          next := f + 1;
          f
        end
        else hunt (f + 1)
      in
      hunt !next)
