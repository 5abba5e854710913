(** Reference interpreter for the instruction subset: {!Semantics} over a
    flat machine.

    Exists to *verify the rewriter*: the qcheck equivalence property runs
    an original instruction stream and its VMFUNC-free rewrite on the same
    initial state and demands identical final registers, memory and
    event history. The machine model is flat: 16 64-bit registers and a
    sparse byte-addressable memory. SYSCALL, VMFUNC, WRPKRU and CPUID
    record events. *)

type event = Ev_vmfunc | Ev_syscall | Ev_cpuid | Ev_wrpkru of int64

type state = {
  regs : int64 array;  (** indexed by {!Reg.encoding} *)
  mem : (int, int) Hashtbl.t;  (** sparse byte memory *)
  mutable ip : int;  (** byte offset into the code buffer *)
  mutable events : event list;  (** reverse chronological *)
  mutable steps : int;
  flags : Semantics.flags;
}

exception Stuck of string

let create ?(rsp = 0x7000_0000) () =
  let regs = Array.make 16 0L in
  regs.(Reg.encoding Reg.Rsp) <- Int64.of_int rsp;
  {
    regs;
    mem = Hashtbl.create 64;
    ip = 0;
    events = [];
    steps = 0;
    flags = Semantics.fresh_flags ();
  }

let read_byte t a = Option.value ~default:0 (Hashtbl.find_opt t.mem (a land 0x7fff_ffff_ffff_ffff))
let write_byte t a v = Hashtbl.replace t.mem (a land 0x7fff_ffff_ffff_ffff) (v land 0xff)

let read64 t a =
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte t (a + k)))
  done;
  !v

let write64 t a v =
  for k = 0 to 7 do
    write_byte t (a + k) (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
  done

let record t e = t.events <- e :: t.events

include Semantics.Make (struct
  type t = state

  let regs t = t.regs
  let flags t = t.flags
  let read64 = read64
  let write64 = write64
  let syscall t = record t Ev_syscall
  let vmfunc t = record t Ev_vmfunc

  (* The PKRU write is an event (the value written matters for
     equivalence); the architectural requirement ECX = EDX = 0 is checked
     by the trampoline auditor and by the MMU-backed executor, not here. *)
  let wrpkru t = record t (Ev_wrpkru t.regs.(Reg.encoding Reg.Rax))
  let cpuid t = record t Ev_cpuid
end)

(* Run until the instruction pointer leaves [code] (falling exactly onto
   [length code] is a normal exit; anywhere else raises), or [max_steps]
   is exceeded. *)
let run ?(max_steps = 10_000) t code =
  let len = Bytes.length code in
  while t.ip <> len do
    if t.ip < 0 || t.ip > len then
      raise (Stuck (Printf.sprintf "ip %#x outside code" t.ip));
    if t.steps >= max_steps then raise (Stuck "step limit");
    t.steps <- t.steps + 1;
    let d = Decode.decode_one code t.ip in
    match d.Decode.insn with
    | None ->
      raise
        (Stuck
           (Printf.sprintf "undecodable byte %#x at %#x"
              (Char.code (Bytes.get code t.ip))
              t.ip))
    | Some insn -> t.ip <- step t insn ~next:(t.ip + d.Decode.len)
  done

let vmfunc_count t =
  List.length (List.filter (fun e -> e = Ev_vmfunc) t.events)

let equal_state a b =
  a.regs = b.regs
  && List.rev a.events = List.rev b.events
  &&
  (* Compare memory as maps, ignoring zero bytes (unset = 0). *)
  let nonzero h =
    Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) h []
    |> List.sort compare
  in
  nonzero a.mem = nonzero b.mem
