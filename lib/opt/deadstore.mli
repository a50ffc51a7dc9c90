(** Dead-definition elimination via liveness, leaving extensions to the
    sign-extension passes so the paper's counters stay meaningful. A
    definition overwritten before any read has an empty DU chain, so
    {!Dce} already removes it: right after {!Dce} in {!Pipeline.iterate}
    this pass is a provable no-op. *)

val run : Sxe_ir.Cfg.func -> bool
