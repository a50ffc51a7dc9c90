(** Optimizer configuration: one value per variant measured in Tables 1-2.

    The flags mirror the paper's breakdown rows exactly. The twelve
    measured configurations, in the tables' row order and with their
    CLI/request spellings, are the single table {!variants}; the
    experiment matrix, the fuzz oracle, the tests and the CLI/daemon
    variant names all derive from it. *)

type conversion = Gen_def | Gen_use
type elimination = Elim_none | Elim_bwd_flow | Elim_ud_du
type insertion = Ins_none | Ins_simple | Ins_pde

type t = {
  name : string;
  conversion : conversion;  (** Step 1 strategy (Figure 6) *)
  elimination : elimination;  (** Step 3 engine *)
  insertion : insertion;  (** phase (3)-1 *)
  order : bool;  (** phase (3)-2: hottest-region-first *)
  array : bool;  (** AnalyzeARRAY / Theorems 1-4 *)
  pre : bool;  (** Step 2 PRE (on for every measured variant) *)
  inline : bool;
      (** method inlining before Step 1 (off in the paper's measured
          pipeline; an ablation shows its effect on ABI-boundary
          extensions) *)
  arch : Arch.t;
  maxlen : int64;
      (** maximum array length assumed for Theorem 4; Java's is
          0x7fffffff, smaller values model the configurable-memory
          scenario of Figure 10 *)
}

let default_maxlen = Sxe_ir.Types.max_array_length

let make ?(arch = Arch.ia64) ?(maxlen = default_maxlen) ?(pre = true) ?(inline = false)
    ~name ~conversion ~elimination ~insertion ~order ~array () =
  { name; conversion; elimination; insertion; order; array; pre; inline; arch; maxlen }

let baseline ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"baseline" ~conversion:Gen_def ~elimination:Elim_none
    ~insertion:Ins_none ~order:false ~array:false ()

let gen_use ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"gen use" ~conversion:Gen_use ~elimination:Elim_none
    ~insertion:Ins_none ~order:false ~array:false ()

let first_algorithm ?arch ?maxlen () =
  make ?arch ?maxlen ~name:"first algorithm" ~conversion:Gen_def ~elimination:Elim_bwd_flow
    ~insertion:Ins_none ~order:false ~array:false ()

let ud_du ?arch ?maxlen ~name ~insertion ~order ~array () =
  make ?arch ?maxlen ~name ~conversion:Gen_def ~elimination:Elim_ud_du ~insertion ~order
    ~array ()

let basic_ud_du ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"basic ud/du" ~insertion:Ins_none ~order:false ~array:false ()

let insert ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"insert" ~insertion:Ins_simple ~order:false ~array:false ()

let order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"order" ~insertion:Ins_none ~order:true ~array:false ()

let insert_order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"insert, order" ~insertion:Ins_simple ~order:true ~array:false ()

let array ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array" ~insertion:Ins_none ~order:false ~array:true ()

let array_insert ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array, insert" ~insertion:Ins_simple ~order:false ~array:true ()

let array_order ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"array, order" ~insertion:Ins_none ~order:true ~array:true ()

let all_pde ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"all, using PDE" ~insertion:Ins_pde ~order:true ~array:true ()

let new_all ?arch ?maxlen () =
  ud_du ?arch ?maxlen ~name:"new algorithm (all)" ~insertion:Ins_simple ~order:true
    ~array:true ()

(** A measured variant, by its CLI/request spelling in {!variants}. *)
type variant =
  [ `Baseline
  | `Gen_use
  | `First
  | `Basic
  | `Insert
  | `Order
  | `Insert_order
  | `Array
  | `Array_insert
  | `Array_order
  | `All_pde
  | `All ]

(** The twelve variants of Tables 1-2, in row order: tag, CLI/request
    spelling, constructor. *)
let variants :
    (variant * string * (?arch:Arch.t -> ?maxlen:int64 -> unit -> t)) list =
  [
    (`Baseline, "baseline", baseline);
    (`Gen_use, "gen-use", gen_use);
    (`First, "first", first_algorithm);
    (`Basic, "basic", basic_ud_du);
    (`Insert, "insert", insert);
    (`Order, "order", order);
    (`Insert_order, "insert-order", insert_order);
    (`Array, "array", array);
    (`Array_insert, "array-insert", array_insert);
    (`Array_order, "array-order", array_order);
    (`All_pde, "all-pde", all_pde);
    (`All, "all", new_all);
  ]

(** Every measured configuration, in {!variants} order. *)
let measured ?arch ?maxlen () : t list =
  List.map (fun (_, _, mk) -> mk ?arch ?maxlen ()) variants

(** extension beyond the paper: the full algorithm preceded by method
    inlining, which deletes ABI-boundary extensions outright *)
let new_all_inline ?arch ?maxlen () =
  make ?arch ?maxlen ~inline:true ~name:"all + inlining" ~conversion:Gen_def
    ~elimination:Elim_ud_du ~insertion:Ins_simple ~order:true ~array:true ()
