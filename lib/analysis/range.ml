(** Interval value-range analysis for 32-bit registers.

    The paper's array theorems (Section 3) need compile-time range facts of
    the form [0 <= j <= 0x7fffffff] or [maxlen-1-0x7fffffff <= j] for
    subscript operands; the paper cites symbolic range propagation
    (Blume–Eigenmann) and Harrison's value-range analysis. We implement a
    classic interval dataflow over the CFG:

    - ranges describe the {e signed low 32 bits} of a register, which is
      well-defined whatever the upper 32 bits hold;
    - conditional branches refine ranges on their out-edges (IA64 [cmp4]
      compares exactly these low 32 bits, so refinement is sound even for
      unextended registers);
    - array accesses refine their index to [0, 0x7ffffffe] afterwards
      (the bounds check threw otherwise), mirroring the paper's [LS]
      predicate;
    - loops converge by widening after a fixed number of visits, followed
      by narrowing passes to recover bounds such as [i < n].

    Only the [I32] registers the function mentions are tracked. Queries
    replay the containing block from its entry state, so per-instruction
    results cost no memory. *)

open Sxe_ir
open Types

type interval = int64 * int64

let i32_min = Int64.of_int32 Int32.min_int
let i32_max = Int64.of_int32 Int32.max_int
let top : interval = (i32_min, i32_max)
let in_i32 v = v >= i32_min && v <= i32_max

let clamp ((lo, hi) : interval) : interval =
  if in_i32 lo && in_i32 hi && lo <= hi then (lo, hi) else top

let join (a : interval) (b : interval) : interval =
  (min (fst a) (fst b), max (snd a) (snd b))

(** Greatest lower bound; a contradictory result marks a dead path, where
    any answer is sound — we collapse to a point. *)
let meet ((alo, ahi) : interval) ((blo, bhi) : interval) : interval =
  let lo = max alo blo and hi = min ahi bhi in
  if lo <= hi then (lo, hi) else (lo, lo)

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let binop_interval op ((llo, lhi) : interval) ((rlo, rhi) : interval) : interval =
  let open Int64 in
  match op with
  | Types.Add -> clamp (add llo rlo, add lhi rhi)
  | Types.Sub -> clamp (sub llo rhi, sub lhi rlo)
  | Types.Mul ->
      let cands = [ mul llo rlo; mul llo rhi; mul lhi rlo; mul lhi rhi ] in
      clamp (List.fold_left min (List.hd cands) cands, List.fold_left max (List.hd cands) cands)
  | Types.Div ->
      if rlo >= 1L || rhi <= -1L then begin
        let cands = [ div llo rlo; div llo rhi; div lhi rlo; div lhi rhi ] in
        clamp (List.fold_left min (List.hd cands) cands, List.fold_left max (List.hd cands) cands)
      end
      else top
  | Types.Rem ->
      if rlo >= 1L then begin
        let m = sub rhi 1L in
        if llo >= 0L then (0L, min lhi m) else clamp (neg m, m)
      end
      else top
  | Types.And ->
      if llo >= 0L && rlo >= 0L then (0L, min lhi rhi)
      else if rlo >= 0L then (0L, rhi)
      else if llo >= 0L then (0L, lhi)
      else top
  | Types.Or | Types.Xor ->
      if llo >= 0L && rlo >= 0L then begin
        let rec pow2m1 x p = if p >= x then p else pow2m1 x (add (mul p 2L) 1L) in
        (0L, pow2m1 (max lhi rhi) 1L)
      end
      else top
  | Types.Shl ->
      if rlo = rhi && rlo >= 0L && rlo < 31L then
        clamp (shift_left llo (to_int rlo), shift_left lhi (to_int rlo))
      else top
  | Types.AShr ->
      if rlo >= 0L && rhi <= 31L then begin
        let a = to_int rlo and b = to_int rhi in
        (min (shift_right llo a) (shift_right llo b), max (shift_right lhi a) (shift_right lhi b))
      end
      else top
  | Types.LShr ->
      (* the 32-bit logical shift of the (upper-zero, possibly guarded)
         operand: a known-positive amount drops the sign bit, so the
         result is a non-negative int32 bounded by [0xFFFFFFFF >> lo];
         a non-negative operand stays within its own shifted bound even
         for a possibly-zero amount *)
      if rlo >= 0L && rhi <= 31L then begin
        if llo >= 0L then (0L, shift_right_logical lhi (to_int rlo))
        else if rlo >= 1L then (0L, shift_right_logical 0xFFFF_FFFFL (to_int rlo))
        else top
      end
      else top

let unop_interval op ((lo, hi) : interval) : interval =
  let open Int64 in
  match op with
  | Types.Neg -> clamp (neg hi, neg lo)
  | Types.Not -> clamp (sub (neg hi) 1L, sub (neg lo) 1L)

(* ------------------------------------------------------------------ *)
(* Per-instruction transfer                                            *)
(* ------------------------------------------------------------------ *)

(* A state is a flat native-int array over the tracked (mentioned [I32])
   registers only: [slot.(r)] is register [r]'s index among them ([-1] when
   untracked), with [lo] at [2s] and [hi] at [2s+1]. Every bound is within
   the int32 range, which fits OCaml's immediate ints, so states compare
   and copy element-wise without boxing. {!compute} preallocates one entry
   and one exit state per block plus two scratch states, and updates them
   in place: a fixpoint allocates no state per block evaluation, which is
   what keeps the analysis' share of compile time JIT-plausible
   (Table 3). *)
type state = int array

let sget (st : state) s : interval = (Int64.of_int st.(2 * s), Int64.of_int st.((2 * s) + 1))

let sset (st : state) s ((lo, hi) : interval) =
  st.(2 * s) <- Int64.to_int lo;
  st.((2 * s) + 1) <- Int64.to_int hi

let lo_min = Int64.to_int i32_min
let hi_max = Int64.to_int i32_max

let state_top width : state = Array.init width (fun k -> if k land 1 = 0 then lo_min else hi_max)

(* Even state indices hold lower bounds, odd ones upper bounds: does
   bound [n] lie outside bound [p] at index [k]? (Typed [int] so the
   comparisons compile native, not polymorphic.) *)
let escapes k (p : int) (n : int) = if k land 1 = 0 then n < p else n > p

let copy_into (src : state) (dst : state) =
  for k = 0 to Array.length src - 1 do
    dst.(k) <- src.(k)
  done

(** Largest possible valid index: length <= 0x7fffffff, index < length. *)
let max_index = Int64.sub i32_max 1L

let narrow_to bound iv = if fst iv >= fst bound && snd iv <= snd bound then iv else bound

(** [call_ranges] is the interprocedural hook: a summary of the callee's
    [I32] return-value interval, when one is known ({!Summary}). Absent
    (the default), call results are [top] — the intraprocedural reading
    every existing client keeps. *)
let transfer ?call_ranges ~(slot : int array) (st : state) (i : Instr.t) =
  let set r iv = if slot.(r) >= 0 then sset st slot.(r) iv in
  let get r = if slot.(r) >= 0 then sget st slot.(r) else top in
  match i.op with
  | Const { dst; ty = I32; v; _ } -> set dst (v, v)
  | Const _ | FConst _ -> ()
  | Mov { dst; src; ty = I32 } -> set dst (get src)
  | Mov _ -> ()
  | Unop { dst; op; src; w = W32 } -> set dst (unop_interval op (get src))
  | Unop _ -> ()
  | Binop { dst; op; l; r; w = W32 } -> set dst (binop_interval op (get l) (get r))
  | Binop _ -> ()
  | Cmp { dst; _ } | FCmp { dst; _ } -> set dst (0L, 1L)
  | Sext { r; from = W32 } | Zext { r; from = W32 } | JustExt { r } ->
      (* value of the low 32 bits unchanged; a dummy extension additionally
         witnesses a successful bounds check *)
      if (match i.op with JustExt _ -> true | _ -> false) then
        set r (meet (get r) (0L, max_index))
  | Sext { r; from = W8 } -> set r (narrow_to (-128L, 127L) (get r))
  | Sext { r; from = W16 } -> set r (narrow_to (-32768L, 32767L) (get r))
  | Sext { r = _; from = W64 } -> ()
  | Zext { r; from = W8 } -> set r (narrow_to (0L, 255L) (get r))
  | Zext { r; from = W16 } -> set r (narrow_to (0L, 65535L) (get r))
  | Zext { r = _; from = W64 } -> ()
  | I2D _ | L2D _ | D2L _ | FBinop _ | FNeg _ -> ()
  | D2I { dst; _ } -> set dst top
  | NewArr { len; _ } -> set len (meet (get len) (0L, i32_max))
  | ArrLoad { dst; idx; elem; lext; _ } ->
      set idx (meet (get idx) (0L, max_index));
      (match (elem, lext) with
      | AI8, LZero -> set dst (0L, 255L)
      | AI8, LSign -> set dst (-128L, 127L)
      | AI16, LZero -> set dst (0L, 65535L)
      | AI16, LSign -> set dst (-32768L, 32767L)
      | AI32, _ -> set dst top
      | (AI64 | AF64 | ARef), _ -> ())
  | ArrStore { idx; _ } -> set idx (meet (get idx) (0L, max_index))
  | ArrLen { dst; _ } -> set dst (0L, i32_max)
  | GLoad { dst; ty = I32; _ } -> set dst top
  | GLoad _ | GStore _ -> ()
  | Call { dst = Some d; ret = Some I32; fn; _ } ->
      set d
        (match call_ranges with
        | Some summary -> (
            match summary fn with Some iv -> clamp iv | None -> top)
        | None -> top)
  | Call _ -> ()

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                   *)
(* ------------------------------------------------------------------ *)

let refine1 ((xlo, xhi) : interval) cond ((ylo, yhi) : interval) : interval =
  let open Int64 in
  match cond with
  | Eq -> meet (xlo, xhi) (ylo, yhi)
  | Ne ->
      if ylo = yhi then
        if xlo = ylo && xlo < xhi then (add xlo 1L, xhi)
        else if xhi = ylo && xlo < xhi then (xlo, sub xhi 1L)
        else (xlo, xhi)
      else (xlo, xhi)
  | Lt -> if yhi > i32_min then meet (xlo, xhi) (i32_min, sub yhi 1L) else (xlo, xhi)
  | Le -> meet (xlo, xhi) (i32_min, yhi)
  | Gt -> if ylo < i32_max then meet (xlo, xhi) (add ylo 1L, i32_max) else (xlo, xhi)
  | Ge -> meet (xlo, xhi) (ylo, i32_max)

(** The slots a branch refines on its edge to [succ] and how, when it
    teaches anything there: [(sl, sr, c)] for [l c r] holding on that
    edge, [l] and [r] both tracked. A taken-and-fallthrough pair to the
    same block teaches nothing. *)
let edge_refinement ~(slot : int array) term succ =
  match term with
  | Instr.Br { cond; l; r; w = W32; ifso; ifnot }
    when ifso <> ifnot && slot.(l) >= 0 && slot.(r) >= 0 ->
      Some (slot.(l), slot.(r), if succ = ifso then cond else Types.negate_cond cond)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  func : Cfg.func;
  entry_states : state array;
  slot : int array;
  call_ranges : (string -> interval option) option;
      (** kept so {!before}/{!after} replays see the same call facts the
          fixpoint did *)
}

let widen_threshold = 3

(** Widening with thresholds: jump an unstable bound to the nearest
    program constant (plus a few standard marks) instead of straight to
    infinity — loop bounds like [i < n] survive the ascending phase this
    way, where a plain widen-then-narrow cannot recover them through the
    header join. Sorted and duplicate-free, as native ints. *)
let collect_thresholds (f : Cfg.func) =
  let acc = ref [ -1L; 0L; 1L; 255L; 65535L; i32_min; i32_max ] in
  Cfg.iter_instrs
    (fun _ i ->
      match i.Instr.op with
      | Instr.Const { ty = I32; v; _ } ->
          acc := v :: Int64.add v 1L :: Int64.sub v 1L :: !acc
      | _ -> ())
    f;
  Array.of_list (List.map Int64.to_int (List.sort_uniq compare (List.filter in_i32 !acc)))

(* index of the first element [>= x] of the sorted [thresholds] *)
let first_geq (thresholds : int array) x =
  let lo = ref 0 and hi = ref (Array.length thresholds) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if thresholds.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let threshold_floor th x = match first_geq th (x + 1) with 0 -> lo_min | i -> th.(i - 1)
let threshold_ceil th x = let i = first_geq th x in if i = Array.length th then hi_max else th.(i)

(* [slot.(r)] for every register of [f]: consecutive indices for the
   [I32] registers some instruction or terminator mentions, as def or
   use, and [-1] for the rest. A never-mentioned register is never set
   nor refined, so its slot would hold [top] at every point, which is
   what an untracked register answers; it would never escape either, so
   leaving it out changes no widening schedule. *)
let mentioned_slots (f : Cfg.func) =
  let mentioned = Array.make (Cfg.num_regs f) false in
  let mention r = mentioned.(r) <- true in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Instr.t) ->
          Option.iter mention (Instr.def i.op);
          List.iter mention (Instr.uses i.op))
        (Cfg.body b);
      List.iter mention (Instr.term_uses (Cfg.term b)))
    f;
  let n = ref 0 in
  let slot = Array.mapi (fun r m -> if m && Cfg.reg_ty f r = I32 then (incr n; !n - 1) else -1) mentioned in
  (slot, !n)

let compute ?call_ranges (f : Cfg.func) =
  let nblocks = Cfg.num_blocks f in
  let slot, ntracked = mentioned_slots f in
  let width = 2 * ntracked in
  let entry_states = Array.init nblocks (fun _ -> state_top width) in
  let out_states = Array.init nblocks (fun _ -> Array.make width 0) in
  (* [fresh] collects a block's joined edge contributions *)
  let fresh = Array.make width 0 in
  let preds = Cfg.preds f in
  let reach = Cfg.reachable f in
  let rpo = Cfg.rpo f in
  let visits = Array.make nblocks 0 in
  let thresholds = collect_thresholds f in
  (* blocks whose entry state has been computed at least once; states of
     untouched blocks are bottom (not top) so a loop header's first visit
     sees only its forward predecessors — essential for keeping bounds
     like [0 <= i] through the ascending phase *)
  let computed = Array.make nblocks false in
  if nblocks > 0 then computed.(Cfg.entry f) <- true;
  (* exit states are cached; a block's cache is dropped when its entry
     state changes *)
  let out_valid = Array.make nblocks false in
  let out_state bid =
    let st = out_states.(bid) in
    if not out_valid.(bid) then begin
      copy_into entry_states.(bid) st;
      List.iter (fun i -> transfer ?call_ranges ~slot st i) (Cfg.body (Cfg.block f bid));
      out_valid.(bid) <- true
    end;
    st
  in
  let set_entry bid st =
    copy_into st entry_states.(bid);
    out_valid.(bid) <- false
  in
  (* [fresh] := [st], or [fresh] joined with [st] *)
  let join_exit ~first (st : state) =
    if first then copy_into st fresh
    else
      for k = 0 to width - 1 do
        if escapes k fresh.(k) st.(k) then fresh.(k) <- st.(k)
      done
  in
  (* [fresh] := the join of the refined exits of [bid]'s computed
     predecessors (top when there are none); every contribution is read
     before [bid]'s own entry state is touched, self-loops included. A
     refined edge joins its unrefined exit, then redoes the (at most two)
     refined slots from what [fresh] held before that join. *)
  let entry_from_preds bid =
    let first = ref true in
    List.iter
      (fun p ->
        if reach.(p) && computed.(p) then begin
          let st = out_state p in
          (match edge_refinement ~slot (Cfg.term (Cfg.block f p)) bid with
          | None -> join_exit ~first:!first st
          | Some (sl, sr, c) ->
              (* both read the unrefined [st]; when [l = r] the second
                 sees the first *)
              let vl = refine1 (sget st sl) c (sget st sr) in
              let vr = refine1 (if sl = sr then vl else sget st sr) (Types.swap_cond c) (sget st sl) in
              let vl = if !first then vl else join (sget fresh sl) vl in
              let vr = if !first then vr else join (sget fresh sr) vr in
              join_exit ~first:!first st;
              sset fresh sl vl;
              sset fresh sr vr);
          first := false
        end)
      preds.(bid);
    if !first then copy_into (state_top width) fresh
  in
  (* ascending phase with widening *)
  let changed = ref true in
  let guard = ref 0 in
  while !changed do
    incr guard;
    if !guard > 1000 then failwith "Range.compute: no convergence";
    changed := false;
    List.iter
      (fun bid ->
        if reach.(bid) && bid <> Cfg.entry f then begin
          entry_from_preds bid;
          if not computed.(bid) then begin
            set_entry bid fresh;
            computed.(bid) <- true;
            changed := true
          end
          else begin
            (* a visit is counted at the first slot that escapes the
               entry state; every escaping slot grows *)
            let cur = entry_states.(bid) and v = ref 0 in
            for k = 0 to width - 1 do
              let n = fresh.(k) in
              if escapes k cur.(k) n then begin
                if !v = 0 then begin
                  visits.(bid) <- visits.(bid) + 1;
                  v := visits.(bid)
                end;
                let v = !v in
                cur.(k) <-
                  (if v > (2 * widen_threshold) + 3 then
                     (* still climbing after several threshold hops: give up
                        and jump to full range so convergence stays linear *)
                     if k land 1 = 0 then lo_min else hi_max
                   else if v > widen_threshold then
                     if k land 1 = 0 then threshold_floor thresholds n else threshold_ceil thresholds n
                   else n)
              end
            done;
            if !v > 0 then begin
              out_valid.(bid) <- false;
              changed := true
            end
          end
        end)
      rpo
  done;
  (* descending (narrowing) phase: a few plain recomputations *)
  for _ = 1 to 2 do
    List.iter
      (fun bid ->
        if reach.(bid) && bid <> Cfg.entry f then begin
          entry_from_preds bid;
          set_entry bid fresh
        end)
      rpo
  done;
  { func = f; entry_states; slot; call_ranges }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* [r]'s range replaying block [bid] from its entry state up to
   instruction [iid] — stopping before it, or after it when [through] —
   or to the end of the block when no instruction has that id *)
let replay t ~bid ~iid ~through r =
  let s = if r < Array.length t.slot then t.slot.(r) else -1 in
  if s < 0 then top
  else begin
    let st = Array.copy t.entry_states.(bid) in
    let step i = transfer ?call_ranges:t.call_ranges ~slot:t.slot st i in
    let rec go = function
      | [] -> ()
      | (i : Instr.t) :: rest ->
          if i.iid <> iid then begin
            step i;
            go rest
          end
          else if through then step i
    in
    go (Cfg.body (Cfg.block t.func bid));
    sget st s
  end

let before t ~bid ~iid r = replay t ~bid ~iid ~through:false r
let after t ~bid ~iid r = replay t ~bid ~iid ~through:true r

(* instruction ids are non-negative, so [-1] replays the whole body *)
let at_exit t ~bid r = replay t ~bid ~iid:(-1) ~through:false r

(** Does [r]'s 32-bit value lie within [lo, hi] just before [iid]? *)
let within t ~bid ~iid r ~lo ~hi =
  let blo, bhi = before t ~bid ~iid r in
  blo >= lo && bhi <= hi
