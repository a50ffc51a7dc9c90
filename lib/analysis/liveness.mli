(** Live-variable analysis (backward union over registers), used by
    Step 2's DCE and dead-store elimination ([Sxe_opt.Dce.sweep]) and by
    the VM's per-slot register liveness. Blocks unreachable from the
    entry are not solved: their sets stay empty. *)

type t

val compute : Sxe_ir.Cfg.func -> t
val live_in : t -> int -> Sxe_util.Bitset.t
val live_out : t -> int -> Sxe_util.Bitset.t

val live_after_each : t -> int -> (int * Sxe_util.Bitset.t) list
(** For each instruction id of the block, in program order, the registers
    live immediately after it. *)
