(** PKRU value arithmetic for the MPK isolation backend.

    The protection-key rights register holds one (AD, WD) bit pair per
    key [k]: bit [2k] is access-disable, bit [2k+1] is write-disable.
    A value of 0 grants every key; setting both bits of a pair removes
    the key entirely. The Subkernel gives each registered domain a
    resting view that grants exactly {e the shared key and its own key}
    ({!allow_only}); the Isoflow invariant [flow.pkru-escape] audits
    that no resting view grants write access to another domain's key. *)

let n_keys = 16

(* The PKRU value denying every key except those listed (listed keys get
   full read/write). *)
let allow_only keys =
  let v = ref 0 in
  for k = 0 to n_keys - 1 do
    if not (List.mem k keys) then v := !v lor (0b11 lsl (2 * k))
  done;
  !v

let allows_read ~pkru ~key = pkru land (1 lsl (2 * key)) = 0

let allows_write ~pkru ~key =
  allows_read ~pkru ~key && pkru land (1 lsl ((2 * key) + 1)) = 0
