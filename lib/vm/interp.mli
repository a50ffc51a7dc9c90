(** The 64-bit machine interpreter.

    Registers are 64 bits wide and every operation follows
    {!Sxe_ir.Eval}'s full-register semantics, so garbage upper bits behave
    exactly as on IA64-class hardware: an unsound extension elimination
    produces divergent output or a ["wild-access"] trap (a bounds-checked
    array access whose full index register disagrees with its
    sign-extended low half). This makes differential testing of the
    optimizer decisive. *)

exception Trap of string

type outcome = {
  output : string;  (** everything printed, newline-separated *)
  checksum : int64;  (** accumulated by the [checksum*] builtins *)
  trap : string option;  (** exception name, if the program aborted *)
  ret : int64 option;  (** [main]'s return value (float bits for F64) *)
  executed : int64;  (** instructions executed *)
  sext32 : int64;  (** executed 32-bit sign extensions — Tables 1/2 *)
  sext_sub : int64;  (** executed 8/16-bit sign extensions *)
  zext32 : int64;  (** executed 32-bit zero extensions *)
  zext_sub : int64;  (** executed 8/16-bit zero extensions *)
  cycles : int64;  (** cost-model cycles — Figures 13/14 *)
}

type varg = VI of int64 | VF of float

val max_depth : int
(** Call-depth limit; beyond it the program traps ["stack-overflow"]. *)

val builtin_names : string list
(** Runtime functions MiniJ programs may call: [print_int], [print_long],
    [print_double], [checksum], [checksum_double]. They observe the full
    argument registers. *)

val run :
  ?mode:[ `Faithful | `Canonical ] ->
  ?fuel:int64 ->
  ?count_cycles:bool ->
  ?profile:Profile.t ->
  ?trace:Format.formatter ->
  ?watch:(string -> int -> int64 -> unit) ->
  ?engine:[ `Precode | `Structural ] ->
  ?fused:bool ->
  Sxe_ir.Prog.t ->
  outcome
(** Execute the program's [main].

    - [`Faithful] (default): the 64-bit machine described above.
    - [`Canonical]: a reference "32-bit machine" that re-extends every
      32-bit definition; running {e unconverted} IR in this mode gives
      source-language (MiniJ/Java) semantics.

    [fuel] bounds executed instructions — terminators included — (trap
    ["fuel-exhausted"]); [profile] records branch-edge counts for
    profile-directed order determination; [count_cycles:false] skips the
    cost model; [trace] streams every executed instruction with its
    input registers; [watch fname iid v] is called after every executed
    instruction defining an integer register (value-snapshot hooks for
    the fuzzer's shrinker).

    [engine] selects the execution engine: [`Precode] (default) runs the
    pre-decoded form cached per function (see {!Precode}); [`Structural]
    interprets the linked CFG directly. Both produce bit-identical
    outcomes, counters included. Runs with [trace] or [watch] always use
    the structural engine — the hooks observe structural instructions.
    [fused] (default true) runs the pre-decoded engine on
    superinstruction-fused images ([docs/VM.md], "Superinstructions");
    it changes no outcome field. *)

val equivalent : outcome -> outcome -> bool
(** Observable equality: output, checksum, trap and return value (the
    counters are deliberately excluded). *)
