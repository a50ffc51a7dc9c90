(** Expression identification shared by local CSE and lazy code motion.

    An {e expression} is a pure, non-throwing computation identified up to
    commutativity by operator, width and operand registers. Two occurrences
    of the same expression between which no operand is redefined compute the
    same full 64-bit value, so one can reuse the other's register — upper
    bits included (this is what lets CSE run before the sign-extension
    phases without disturbing extension facts).

    Potentially-throwing operations ([Div]/[Rem], array accesses,
    allocations) are excluded: hoisting them would reorder exceptions with
    side effects. Extensions are included — they are ordinary expressions
    here, idempotent over their own register, which is how Step 2 removes
    syntactically redundant extensions (the paper's "PRE phase eliminated
    some sign extensions for our baseline"). *)

open Sxe_ir
open Types

type key = string

let commutative = function Add | Mul | And | Or | Xor -> true | _ -> false

(** [of_op op] is the expression computed by [op], with its operand
    registers and an optional global symbol whose stores kill it. *)
let of_op (op : Instr.op) : (key * Instr.reg list * string option) option =
  let k = String.concat ":" and i = string_of_int in
  match op with
  | Instr.Binop { op = Div | Rem; _ } -> None
  | Instr.Binop { op = bop; l; r; w; _ } ->
      let l, r = if commutative bop && r < l then (r, l) else (l, r) in
      Some (k [ "b"; string_of_binop bop; string_of_width w; i l; i r ], [ l; r ], None)
  | Instr.Unop { op = uop; src; w; _ } ->
      Some (k [ "u"; string_of_unop uop; string_of_width w; i src ], [ src ], None)
  | Instr.Cmp { cond; l; r; w; _ } ->
      let cond, l, r =
        if (cond = Eq || cond = Ne) && r < l then (cond, r, l) else (cond, l, r)
      in
      Some (k [ "c"; string_of_cond cond; string_of_width w; i l; i r ], [ l; r ], None)
  | Instr.Sext { r; from } -> Some (k [ "sx"; string_of_width from; i r ], [ r ], None)
  | Instr.Zext { r; from } -> Some (k [ "zx"; string_of_width from; i r ], [ r ], None)
  | Instr.FBinop { op = fop; l; r; _ } ->
      let l, r = if (fop = FAdd || fop = FMul) && r < l then (r, l) else (l, r) in
      Some (k [ "f"; string_of_fbinop fop; i l; i r ], [ l; r ], None)
  | Instr.FNeg { src; _ } -> Some (k [ "fn"; i src ], [ src ], None)
  | Instr.FCmp { cond; l; r; _ } -> Some (k [ "fc"; string_of_cond cond; i l; i r ], [ l; r ], None)
  | Instr.I2D { src; _ } -> Some (k [ "i2d"; i src ], [ src ], None)
  | Instr.L2D { src; _ } -> Some (k [ "l2d"; i src ], [ src ], None)
  | Instr.D2I { src; _ } -> Some (k [ "d2i"; i src ], [ src ], None)
  | Instr.D2L { src; _ } -> Some (k [ "d2l"; i src ], [ src ], None)
  | Instr.GLoad { sym; ty; lext; _ } ->
      let e = match lext with LZero -> "0" | LSign -> "1" in
      Some (k [ "g"; sym; string_of_ty ty; e ], [], Some sym)
  | _ -> None

(** What an instruction kills, computed once per instruction: the register
    it defines, the key of its own expression when it is an extension, and
    the global memory it writes ([`All] for a call). *)
type killer = {
  kdef : Instr.reg option;
  own : key option;
  writes : [ `Nothing | `Sym of string | `All ];
}

let killer (i : Instr.t) =
  let own =
    match i.op with
    | Instr.Sext _ | Instr.Zext _ -> Option.map (fun (k, _, _) -> k) (of_op i.op)
    | _ -> None
  in
  let writes =
    match i.op with Instr.GStore { sym; _ } -> `Sym sym | Instr.Call _ -> `All | _ -> `Nothing
  in
  { kdef = Instr.def i.op; own; writes }

(** Does the instruction behind [k] kill expression [(key, operands, sym)]?
    Redefining an operand kills it — [i = i + 1] kills add(i, 1) — except
    for an extension's own expression, which it does not kill (extensions
    are idempotent: applying one twice yields the same register value).
    Writing the expression's global, or any call, kills a global read. *)
let kills (k : killer) ((key, operands, sym) : key * Instr.reg list * string option) =
  (match k.kdef with Some d -> List.mem d operands && k.own <> Some key | None -> false)
  ||
  match (sym, k.writes) with
  | Some s, `Sym s2 -> s = s2
  | Some _, `All -> true
  | _ -> false

(** Rebuild the computation of an expression into register [dst]. The
    original occurrence's op is the template; only the destination changes.
    For same-register extensions the result is a two-instruction sequence
    (copy then extend). *)
let materialize (f : Cfg.func) (template : Instr.op) ~(dst : Instr.reg) : Instr.t list =
  let mk op = Cfg.mk_instr f op in
  match template with
  | Instr.Binop c -> [ mk (Instr.Binop { c with dst }) ]
  | Instr.Unop c -> [ mk (Instr.Unop { c with dst }) ]
  | Instr.Cmp c -> [ mk (Instr.Cmp { c with dst }) ]
  | Instr.Sext { r; from } ->
      [ mk (Instr.Mov { dst; src = r; ty = I32 }); mk (Instr.Sext { r = dst; from }) ]
  | Instr.Zext { r; from } ->
      [ mk (Instr.Mov { dst; src = r; ty = I32 }); mk (Instr.Zext { r = dst; from }) ]
  | Instr.FBinop c -> [ mk (Instr.FBinop { c with dst }) ]
  | Instr.FNeg c -> [ mk (Instr.FNeg { c with dst }) ]
  | Instr.FCmp c -> [ mk (Instr.FCmp { c with dst }) ]
  | Instr.I2D c -> [ mk (Instr.I2D { c with dst }) ]
  | Instr.L2D c -> [ mk (Instr.L2D { c with dst }) ]
  | Instr.D2I c -> [ mk (Instr.D2I { c with dst }) ]
  | Instr.D2L c -> [ mk (Instr.D2L { c with dst }) ]
  | Instr.GLoad c -> [ mk (Instr.GLoad { c with dst }) ]
  | _ -> invalid_arg "Exprs.materialize: not an expression"

(** Register type of the expression's value. *)
let result_ty (f : Cfg.func) (template : Instr.op) =
  match Instr.def template with
  | Some d -> Cfg.reg_ty f d
  | None -> invalid_arg "Exprs.result_ty"
