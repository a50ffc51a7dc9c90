(** Dead code elimination by liveness: removes definitions no use can
    observe — the same fixpoint as iterating a DU-chain DCE — in rounds of
    one liveness solve and one backward sweep per block. Side-effecting
    (including potentially-throwing) instructions are kept. *)

val sweep : removable:(Sxe_ir.Instr.t -> bool) -> Sxe_ir.Cfg.func -> bool
(** [sweep ~removable f] removes, to a fixpoint, every defining
    instruction accepted by [removable] whose register is not live
    immediately after it; [true] if anything was removed. *)

val run : Sxe_ir.Cfg.func -> bool
(** [sweep] over every instruction without a side effect. *)
