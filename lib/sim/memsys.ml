type kind = Insn | Data

let access (cpu : Cpu.t) kind pa =
  let l1 = match kind with Insn -> cpu.l1i | Data -> cpu.l1d in
  if Cache.access l1 pa then Cpu.charge cpu Costs.lat_l1
  else if Cache.access cpu.l2 pa then Cpu.charge cpu Costs.lat_l2
  else if Cache.access cpu.l3 pa then Cpu.charge cpu Costs.lat_l3
  else Cpu.charge cpu Costs.lat_dram

let access_state_only (cpu : Cpu.t) kind pa =
  let l1 = match kind with Insn -> cpu.l1i | Data -> cpu.l1d in
  if not (Cache.access l1 pa) then
    if not (Cache.access cpu.l2 pa) then ignore (Cache.access cpu.l3 pa)

(* A resident run replays in one pass ({!Cache.replay}); otherwise the
   per-line pass below records it for the next touch. Only state-only
   touches replay: they charge nothing, so they fire no trace or fault
   hook a replay could skip. *)
let touch_range_state_only (cpu : Cpu.t) kind ~pa ~len =
  if len > 0 then begin
    let line = 64 in
    let first = pa / line and last = (pa + len - 1) / line in
    let l1 = match kind with Insn -> cpu.l1i | Data -> cpu.l1d in
    if not (Cache.replay l1 ~pa:(first * line) ~count:(last - first + 1)) then begin
      for l = first to last do
        if not (Cache.access_recorded l1 (l * line)) then
          if not (Cache.access cpu.l2 (l * line)) then
            ignore (Cache.access cpu.l3 (l * line))
      done;
      Cache.end_run l1
    end
  end

let access_uncached cpu = Cpu.charge cpu Costs.lat_dram

let touch_range cpu kind ~pa ~len =
  if len > 0 then begin
    let line = 64 in
    let first = pa / line and last = (pa + len - 1) / line in
    for l = first to last do
      access cpu kind (l * line)
    done
  end
