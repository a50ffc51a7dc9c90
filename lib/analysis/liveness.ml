(** Live-variable analysis: the classic backward union bit-vector problem
    over registers. Used by Step 2's DCE and dead-store elimination (a
    definition whose register is not live immediately after it, by an
    instruction with no side effect, is removable) and by the VM's
    precode register liveness. *)

open Sxe_util
open Sxe_ir

type t = {
  func : Cfg.func;
  sol : Dataflow.result;  (** per-block live-in / live-out register sets *)
}

let compute (f : Cfg.func) =
  let universe = Cfg.num_regs f in
  let transfer bid (out : Bitset.t) =
    (* backward through the block: live-in = transfer of live-out *)
    let live = Bitset.copy out in
    let b = Cfg.block f bid in
    List.iter (fun r -> Bitset.add live r) (Instr.term_uses (Cfg.term b));
    List.iter
      (fun (i : Instr.t) ->
        (match Instr.def i.Instr.op with Some d -> Bitset.remove live d | None -> ());
        List.iter (fun r -> Bitset.add live r) (Instr.uses i.Instr.op))
      (List.rev (Cfg.body b));
    live
  in
  let boundary = Bitset.create universe in
  let sol =
    Dataflow.solve ~f ~dir:Dataflow.Backward ~meet:Dataflow.Union ~universe ~transfer
      ~boundary
  in
  { func = f; sol }

let live_in t bid = t.sol.Dataflow.inb.(bid)
let live_out t bid = t.sol.Dataflow.outb.(bid)

(** Replay block [bid] backward and report, for each instruction id, the
    set of registers live immediately {e after} it. *)
let live_after_each t bid : (int * Bitset.t) list =
  let b = Cfg.block t.func bid in
  let live = Bitset.copy (live_out t bid) in
  List.iter (fun r -> Bitset.add live r) (Instr.term_uses (Cfg.term b));
  let acc = ref [] in
  List.iter
    (fun (i : Instr.t) ->
      (* [live] currently holds the registers live just after [i]; record
         it before applying [i]'s own transfer *)
      acc := (i.Instr.iid, Bitset.copy live) :: !acc;
      (match Instr.def i.Instr.op with Some d -> Bitset.remove live d | None -> ());
      List.iter (fun r -> Bitset.add live r) (Instr.uses i.Instr.op))
    (List.rev (Cfg.body b));
  !acc
