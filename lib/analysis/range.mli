(** Interval value-range analysis for 32-bit registers — the compile-time
    range knowledge Theorems 2–4 of the paper rest on.

    Ranges describe the signed low 32 bits of a register (well-defined
    whatever the upper half holds). Conditional branches refine ranges on
    their out-edges; array accesses refine their index (the paper's [LS]
    predicate); loops converge by threshold widening plus narrowing.
    An [I32] register gets a slot of a native-int state only if some
    instruction or terminator of the function mentions it, as def or
    use, so a state is as wide as what the function mentions, not as its
    register count. An unmentioned register is never set nor refined,
    so it would be [top] at every point; that is exactly what an
    untracked register answers, and it never escapes a state, so
    widening schedules are unchanged too. [compute] updates preallocated
    per-block and scratch states in place, allocating none per block
    evaluation. Queries replay the containing block from its entry
    state. *)

type interval = int64 * int64

val i32_min : int64
val i32_max : int64
val top : interval
val join : interval -> interval -> interval
val meet : interval -> interval -> interval

val binop_interval : Sxe_ir.Types.binop -> interval -> interval -> interval
(** Abstract transfer of a W32 integer operation (wrap-checked: an
    overflowing bound collapses to [top]). *)

val unop_interval : Sxe_ir.Types.unop -> interval -> interval

type t

val compute : ?call_ranges:(string -> interval option) -> Sxe_ir.Cfg.func -> t
(** [call_ranges] is the interprocedural hook: when it returns a summary
    interval for a callee name, [I32] call results take that interval
    instead of [top] ({!Summary} builds such summaries once per program
    and reuses them across every call site). Omitted, the analysis is
    purely intraprocedural — the behaviour every existing client keeps. *)

val before : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> interval
(** Range of a register immediately before instruction [iid] of block
    [bid]; [top] for untracked (non-I32) registers. *)

val after : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> interval
(** Range immediately after the instruction. *)

val at_exit : t -> bid:int -> Sxe_ir.Instr.reg -> interval
(** Range at the end of the block, just before the terminator. *)

val within : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> lo:int64 -> hi:int64 -> bool
(** Is the register provably within [lo, hi] just before the instruction? *)

(**/**)

val threshold_floor : int array -> int -> int
val threshold_ceil : int array -> int -> int
(** Widening's threshold lookup, exposed for tests: over a sorted,
    duplicate-free array of int32 values, the largest element [<= x] (else
    [i32_min]) and the smallest [>= x] (else [i32_max]). *)
