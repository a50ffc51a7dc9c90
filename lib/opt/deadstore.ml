(** Dead-definition elimination via liveness, extensions excluded.

    {!Dce.sweep} restricted to non-extension instructions: extensions are
    left to the sign-extension passes (removing [r = extend(r)] here would
    be semantically fine when [r] is dead, but keeping the accounting in
    one place makes the paper's counters meaningful). Right after {!Dce}
    in {!Pipeline.iterate} it is a provable no-op: DCE has already
    removed every side-effect-free definition that is not live after
    itself, extensions included. *)

open Sxe_ir

let removable (i : Instr.t) =
  (not (Instr.has_side_effect i.Instr.op))
  && (not (Instr.is_sext i.Instr.op))
  && not (Instr.is_justext i.Instr.op)
  && match i.Instr.op with Instr.Zext _ -> false | _ -> true

let run = Dce.sweep ~removable
