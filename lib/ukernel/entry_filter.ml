(** Per-domain allowed-entry-point table for the filtered-syscall
    isolation backend ("syscall as a privilege").

    Where the VMFUNC backend keeps the kernel out of the IPC path
    entirely and the MPK backend gates crossings in user space, the
    filtered-syscall backend routes every cross-domain call through the
    kernel — but a {e filtered} kernel: a client's SYSCALL may only land
    on an entry point that was explicitly granted to it at bind time.
    The filter is checked at trap time, before any context switch, so a
    compromised client probing for other servers' handlers is denied at
    the cheapest possible point. Revocation is a table erase: the next
    trap from that client is denied and falls back to the typed
    [Binding_revoked] error, mirroring the EPTP-slot degeneracy trick of
    the VMFUNC path. *)

type t = {
  allowed : (int, int) Hashtbl.t;
      (** (client pid, server id), packed by [grant], -> granted entry VA *)
  mutable denials : int;
}

let create () = { allowed = Hashtbl.create 64; denials = 0 }

(* A grant's key packs the client pid and the server id into one
   immediate, so the trap-time lookup allocates nothing. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let grant ~pid ~server = (pid lsl id_bits) lor (server land id_mask)

let allow t ~pid ~server ~entry =
  if pid < 0 || server < 0 || server > id_mask then
    invalid_arg "Entry_filter.allow: id out of range";
  Hashtbl.replace t.allowed (grant ~pid ~server) entry

let revoke t ~pid ~server = Hashtbl.remove t.allowed (grant ~pid ~server)

(* The trap-time check: charged at Costs.entry_filter_check by the
   caller (the kernel entry path); a denial is counted here. *)
let check t ~pid ~server ~entry =
  match Hashtbl.find t.allowed (grant ~pid ~server) with
  | granted when granted = entry -> true
  | _ | (exception Not_found) ->
    t.denials <- t.denials + 1;
    false

let size t = Hashtbl.length t.allowed

let entries t =
  Hashtbl.fold
    (fun k entry acc -> (k lsr id_bits, k land id_mask, entry) :: acc)
    t.allowed []
  |> List.sort compare

let denials t = t.denials
