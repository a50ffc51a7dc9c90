(** Dead code elimination by liveness.

    An instruction is dead when it defines a register that is not live
    immediately after it and it has no side effect (stores, calls,
    allocations and potentially throwing instructions are side-effecting;
    see {!Sxe_ir.Instr.has_side_effect}). "Not live after [i]" is exactly
    "[DU(i)] is empty" on UD/DU chains, so this removes what a chain-based
    DCE iterated to its fixpoint removes.

    Each round solves liveness once, then sweeps every block backward; a
    dead instruction's uses are not added, so a dead chain inside a block
    goes in one round. Removal only shrinks liveness, so the set of dead
    instructions does not depend on the order they are found in. Another
    round runs only if this one removed something: a dead chain across
    blocks can need several. *)

open Sxe_ir
module Bitset = Sxe_util.Bitset
module Liveness = Sxe_analysis.Liveness

let sweep ~removable (f : Cfg.func) =
  let round () =
    let live = Liveness.compute f in
    let removed = ref false in
    Cfg.iter_blocks
      (fun b ->
        let l = Bitset.copy (Liveness.live_out live b.Cfg.bid) in
        List.iter (Bitset.add l) (Instr.term_uses (Cfg.term b));
        let kept, dropped =
          List.fold_left
            (fun (kept, dropped) (i : Instr.t) ->
              match Instr.def i.Instr.op with
              | Some d when (not (Bitset.mem l d)) && removable i -> (kept, true)
              | def ->
                  Option.iter (Bitset.remove l) def;
                  List.iter (Bitset.add l) (Instr.uses i.Instr.op);
                  (i :: kept, dropped))
            ([], false)
            (List.rev (Cfg.body b))
        in
        if dropped then begin
          Cfg.set_body b kept;
          removed := true
        end)
      f;
    !removed
  in
  let changed = ref false in
  while round () do
    changed := true
  done;
  !changed

let run = sweep ~removable:(fun (i : Instr.t) -> not (Instr.has_side_effect i.Instr.op))
