(** Pre-decoded execution engine.

    Flattens each function into arrays of decoded instructions (fields
    pulled out of the IR records, jump targets resolved to flat offsets,
    canonical-mode re-extension and static costs baked in) and executes
    them with a tight program-counter loop over native-int counters.
    Decoded code is cached per function, keyed by the {!Sxe_ir.Cfg}
    generation counter, and per (mode, fused).

    Observable behaviour — output, checksum, trap, return value and the
    dynamic counters — is bit-identical to the structural {!Interp}
    engine. [trace]/[watch] hooks are not supported here; {!Interp.run}
    routes runs that use them to the structural engine. See [docs/VM.md]
    for the format and the invalidation rules. *)

exception Trap of string

(** {1 Word stores}

    The engine keeps its 64-bit integer state — register files, global
    slots, integer-array data — in [Bytes.t], one native-endian word per
    element at byte offset [i lsl 3], so a write stores an unboxed value
    instead of allocating a box (see [docs/VM.md], "Value
    representation"). Accesses are bounds-checked. *)

val words : int -> Bytes.t
(** [words n]: [n] zeroed words. *)

val nwords : Bytes.t -> int
val ( .%{} ) : Bytes.t -> int -> int64
val ( .%{}<- ) : Bytes.t -> int -> int64 -> unit

(** Heap cells, shared with the structural engine. [IArr] data is a
    word store holding each element as its stored (already narrowed)
    64-bit image. *)
type cell =
  | IArr of { elem : Sxe_ir.Types.aelem; data : Bytes.t }
  | FArr of float array
  | RArr of int array

type outcome = {
  output : string;
  checksum : int64;
  trap : string option;
  ret : int64 option;
  executed : int64;
  sext32 : int64;
  sext_sub : int64;
  zext32 : int64;
  zext_sub : int64;
  cycles : int64;
}

val max_alloc : int
val max_depth : int

val builtin_names : string list

(** {1 Extension kernels}

    Copies of {!Sxe_ir.Eval}'s extension and float-conversion kernels
    that inline into the dispatch loop: under [-opaque] a call into
    another module is never inlined, and an [int64] or [float] crosses
    it boxed. [Eval] stays the written
    semantics; tier-1 checks each kernel against it. *)

val low32 : int64 -> int64
val sext32 : int64 -> int64
val zext32 : int64 -> int64
val sext16 : int64 -> int64
val zext16 : int64 -> int64
val sext8 : int64 -> int64
val zext8 : int64 -> int64
val fcmp : Sxe_ir.Types.cond -> float -> float -> bool
val d2i : float -> int64
val d2l : float -> int64

val elem_load : Sxe_ir.Types.aelem -> Sxe_ir.Types.lext -> int64 -> int64
(** The register image of a raw element under the load's extension. *)

val elem_store : Sxe_ir.Types.aelem -> int64 -> int64
(** The stored image of a register value: narrowed to the element width. *)

val checksum_mix : int64 -> int64 -> int64

type pfunc
(** A function decoded for one mode, fused or not. *)

val rule_names : string list
(** The superinstruction-fusion rules, in the order {!fusion_stats}
    reports them. See [docs/VM.md], "Superinstructions". *)

val fusion_stats : pfunc -> (string * int) list
(** Fused superinstruction groups per rule name, in {!rule_names}
    order, rules that formed no group omitted; empty when the image was
    decoded without fusion. *)

val fused_total : pfunc -> int
(** Total fused groups in the image. *)

val enable_dispatch : Profile.t -> unit
(** Enable dispatch-pair collection on a profile with this engine's
    opcode id space; runs passing that profile then count consecutive
    straight-line opcode pairs. *)

val dispatch_counts : Profile.t -> ((string * string) * int) list
(** The collected histogram as [((first, second), count)], count
    descending (deterministic tie order). *)

val disasm : pfunc -> string
(** Flat-code listing, one line per slot: offset, a [B<bid>:] marker on
    block starts, and the opcode name; slots shadowed by a preceding
    fused superinstruction are marked [.]. Debugging and test aid. *)

val decode : ?fused:bool -> canonical:bool -> Sxe_ir.Cfg.func -> pfunc
(** Decode unconditionally (no cache), with superinstruction fusion
    unless [fused] is false (default true). Exposed for tests and
    benchmarks. *)

val get_decoded : ?fused:bool -> canonical:bool -> Sxe_ir.Cfg.func -> pfunc
(** Decode through the per-function cache: at most one decode per
    (generation, mode, fused); any mutation through the {!Sxe_ir.Cfg}
    API invalidates every image. [fused] defaults to true. *)

val run :
  ?mode:[ `Faithful | `Canonical ] ->
  ?fuel:int64 ->
  ?count_cycles:bool ->
  ?profile:Profile.t ->
  ?fused:bool ->
  Sxe_ir.Prog.t ->
  outcome
(** Execute the program's [main]; same contract as {!Interp.run} minus the
    [trace]/[watch] hooks. [fused] (default true) runs the
    superinstruction-fused images; fused and unfused runs produce
    bit-identical outcomes, counters included. *)
