(** Reference interpreter for the instruction subset.

    Exists to *verify the rewriter*: the qcheck equivalence property runs
    an original instruction stream and its VMFUNC-free rewrite on the same
    initial state and demands identical final registers, memory and
    event history. The machine model is flat: 16 64-bit registers and a
    sparse byte-addressable memory. *)

type event = Ev_vmfunc | Ev_syscall | Ev_cpuid | Ev_wrpkru of int64

(* Condition flags, reduced to the predicates the supported Jcc
   conditions need: zero, signed-less, unsigned-less. *)
type flags = { mutable zf : bool; mutable slt : bool; mutable ult : bool }

type state = {
  regs : int64 array;  (** indexed by {!Reg.encoding} *)
  mem : (int, int) Hashtbl.t;  (** sparse byte memory *)
  mutable ip : int;  (** byte offset into the code buffer *)
  mutable events : event list;  (** reverse chronological *)
  mutable steps : int;
  flags : flags;
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
    flags = { zf = false; slt = false; ult = false };
  }

let get t r = t.regs.(Reg.encoding r)
let set t r v = t.regs.(Reg.encoding r) <- v
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

let ea t (m : Insn.mem) =
  let base = Option.fold ~none:0L ~some:(get t) m.Insn.base in
  let index =
    Option.fold ~none:0L
      ~some:(fun (r, s) -> Int64.mul (get t r) (Int64.of_int s))
      m.Insn.index
  in
  Int64.to_int (Int64.add (Int64.add base index) (Int64.of_int m.Insn.disp))

let push t v =
  let rsp = Int64.sub (get t Reg.Rsp) 8L in
  set t Reg.Rsp rsp;
  write64 t (Int64.to_int rsp) v

let pop t =
  let rsp = get t Reg.Rsp in
  let v = read64 t (Int64.to_int rsp) in
  set t Reg.Rsp (Int64.add rsp 8L);
  v

(* Flags from a result compared against zero (after ALU ops). *)
let set_flags_result t v =
  t.flags.zf <- Int64.equal v 0L;
  t.flags.slt <- Int64.compare v 0L < 0;
  t.flags.ult <- false

(* Flags from a subtraction a - b (CMP semantics). *)
let set_flags_cmp t a b =
  t.flags.zf <- Int64.equal a b;
  t.flags.slt <- Int64.compare a b < 0;
  t.flags.ult <- Int64.unsigned_compare a b < 0

let cond_holds t = function
  | Insn.E -> t.flags.zf
  | Insn.Ne -> not t.flags.zf
  | Insn.L -> t.flags.slt
  | Insn.Ge -> not t.flags.slt
  | Insn.Le -> t.flags.slt || t.flags.zf
  | Insn.G -> not (t.flags.slt || t.flags.zf)
  | Insn.B -> t.flags.ult
  | Insn.Ae -> not t.flags.ult

(* Executes the instruction; returns [None] for fallthrough or [Some ip]
   for a control transfer (absolute byte offset). *)
let exec_insn t insn ~next_ip =
  let alu r v =
    set t r v;
    set_flags_result t v;
    None
  in
  match insn with
  | Insn.Nop -> None
  | Insn.Push r ->
    push t (get t r);
    None
  | Insn.Pop r ->
    set t r (pop t);
    None
  | Insn.Mov_rr (d, s) ->
    set t d (get t s);
    None
  | Insn.Mov_ri (d, i) ->
    set t d i;
    None
  | Insn.Mov_load (d, m) ->
    set t d (read64 t (ea t m));
    None
  | Insn.Mov_store (m, s) ->
    write64 t (ea t m) (get t s);
    None
  | Insn.Add_rr (d, s) ->
    set t d (Int64.add (get t d) (get t s));
    None
  | Insn.Add_ri (d, i) ->
    set t d (Int64.add (get t d) (Int64.of_int i));
    None
  | Insn.Add_rm (d, m) ->
    set t d (Int64.add (get t d) (read64 t (ea t m)));
    None
  | Insn.Sub_ri (d, i) ->
    set t d (Int64.sub (get t d) (Int64.of_int i));
    None
  | Insn.Xor_rr (d, s) -> alu d (Int64.logxor (get t d) (get t s))
  | Insn.Imul_rri (d, Insn.R s, i) ->
    set t d (Int64.mul (get t s) (Int64.of_int i));
    None
  | Insn.Imul_rri (d, Insn.M m, i) ->
    set t d (Int64.mul (read64 t (ea t m)) (Int64.of_int i));
    None
  | Insn.Imul_rm (d, Insn.R s) ->
    set t d (Int64.mul (get t d) (get t s));
    None
  | Insn.Imul_rm (d, Insn.M m) ->
    set t d (Int64.mul (get t d) (read64 t (ea t m)));
    None
  | Insn.Lea (d, m) ->
    set t d (Int64.of_int (ea t m));
    None
  | Insn.And_rr (d, sr) -> alu d (Int64.logand (get t d) (get t sr))
  | Insn.And_ri (d, i) -> alu d (Int64.logand (get t d) (Int64.of_int i))
  | Insn.Or_rr (d, sr) -> alu d (Int64.logor (get t d) (get t sr))
  | Insn.Or_ri (d, i) -> alu d (Int64.logor (get t d) (Int64.of_int i))
  | Insn.Cmp_rr (a, b) ->
    set_flags_cmp t (get t a) (get t b);
    None
  | Insn.Cmp_ri (a, i) ->
    set_flags_cmp t (get t a) (Int64.of_int i);
    None
  | Insn.Test_rr (a, b) ->
    set_flags_result t (Int64.logand (get t a) (get t b));
    None
  | Insn.Shl_ri (d, i) -> alu d (Int64.shift_left (get t d) (i land 0x3f))
  | Insn.Shr_ri (d, i) -> alu d (Int64.shift_right_logical (get t d) (i land 0x3f))
  | Insn.Inc d -> alu d (Int64.add (get t d) 1L)
  | Insn.Dec d -> alu d (Int64.sub (get t d) 1L)
  | Insn.Neg d -> alu d (Int64.neg (get t d))
  | Insn.Jcc (c, rel) -> if cond_holds t c then Some (next_ip + rel) else None
  | Insn.Jmp_rel rel -> Some (next_ip + rel)
  | Insn.Call_rel rel ->
    push t (Int64.of_int next_ip);
    Some (next_ip + rel)
  | Insn.Ret -> Some (Int64.to_int (pop t))
  | Insn.Syscall ->
    t.events <- Ev_syscall :: t.events;
    None
  | Insn.Vmfunc ->
    t.events <- Ev_vmfunc :: t.events;
    None
  | Insn.Wrpkru ->
    (* The PKRU write is an event (the value written matters for
       equivalence); the architectural requirement ECX = EDX = 0 is
       checked by the trampoline auditor, not here. *)
    t.events <- Ev_wrpkru (get t Reg.Rax) :: t.events;
    None
  | Insn.Cpuid ->
    (* Deterministic leaf values. *)
    set t Reg.Rax 0x16L;
    set t Reg.Rbx 0x756e_6547L;
    set t Reg.Rcx 0x6c65_746eL;
    set t Reg.Rdx 0x4965_6e69L;
    t.events <- Ev_cpuid :: t.events;
    None

(* Run until the instruction pointer leaves [code] (falling exactly onto
   [length code] is a normal exit; anywhere else raises), or [max_steps]
   is exceeded. *)
let run ?(max_steps = 10_000) t code =
  let len = Bytes.length code in
  let rec go () =
    if t.ip = len then ()
    else if t.ip < 0 || t.ip > len then
      raise (Stuck (Printf.sprintf "ip %#x outside code" t.ip))
    else if t.steps >= max_steps then raise (Stuck "step limit")
    else begin
      t.steps <- t.steps + 1;
      let d = Decode.decode_one code t.ip in
      match d.Decode.insn with
      | None ->
        raise
          (Stuck
             (Printf.sprintf "undecodable byte %#x at %#x"
                (Char.code (Bytes.get code t.ip))
                t.ip))
      | Some insn ->
        let next_ip = t.ip + d.Decode.len in
        (match exec_insn t insn ~next_ip with
        | None -> t.ip <- next_ip
        | Some target -> t.ip <- target);
        go ()
    end
  in
  go ()

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
