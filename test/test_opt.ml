(** Tests for Step 2's general optimizations: constant folding, copy
    propagation, local CSE, DCE, edge splitting and lazy code motion. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder

let count_op f pred = Cfg.fold_instrs (fun n _ i -> if pred i.Instr.op then n + 1 else n) 0 f

let count_op_in blk pred =
  List.length (List.filter (fun (i : Instr.t) -> pred i.Instr.op) (Cfg.body blk))

let is_gload = function Instr.GLoad _ -> true | _ -> false
let is_const = function Instr.Const _ -> true | _ -> false
let is_sext = Instr.is_sext
let is_binop = function Instr.Binop _ -> true | _ -> false

let test_constfold_arith () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 6 in
  let y = B.iconst b 7 in
  let m = B.mul b x y in
  B.retv b I32 m;
  let f = B.func b in
  ignore (Sxe_opt.Constfold.run f);
  Alcotest.(check int) "no binop left" 0 (count_op f is_binop);
  (* and the result is the right constant *)
  let p = Helpers.prog_of_func f in
  let out = Sxe_vm.Interp.run p in
  Alcotest.(check (option int64)) "folded value" (Some 42L) out.Sxe_vm.Interp.ret

let test_constfold_folds_extension () =
  (* "the sign extension will be changed to a copy instruction by constant
     folding" (Section 2) *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b (-5) in
  ignore (B.sext b x);
  B.retv b I32 x;
  let f = B.func b in
  ignore (Sxe_opt.Constfold.run f);
  Alcotest.(check int) "extension folded away" 0 (count_op f is_sext)

let test_constfold_wrap () =
  (* folding is exact for 32-bit wraparound *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.const b ~ty:I32 0x7FFFFFFFL in
  let one = B.iconst b 1 in
  let s = B.add b x one in
  ignore (B.sext b s);
  B.retv b I32 s;
  let f = B.func b in
  ignore (Sxe_opt.Constfold.run f);
  let p = Helpers.prog_of_func f in
  let out = Sxe_vm.Interp.run p in
  Alcotest.(check (option int64)) "wrapped" (Some (Int64.of_int32 Int32.min_int))
    out.Sxe_vm.Interp.ret

let test_constfold_division_guard () =
  (* a constant division by zero must NOT be folded: the trap is the
     program's observable behaviour *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 5 in
  let z = B.iconst b 0 in
  let d = B.div b x z in
  B.retv b I32 d;
  let f = B.func b in
  ignore (Sxe_opt.Constfold.run f);
  Alcotest.(check int) "division kept" 1 (count_op f is_binop);
  let out = Sxe_vm.Interp.run (Helpers.prog_of_func f) in
  Alcotest.(check (option string)) "still traps" (Some "division-by-zero")
    out.Sxe_vm.Interp.trap

let test_constfold_branch () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 1 in
  let y = B.iconst b 2 in
  let t = B.new_block b and e = B.new_block b in
  B.br b Lt x y ~ifso:t ~ifnot:e;
  B.switch b t;
  B.retv b I32 x;
  B.switch b e;
  B.retv b I32 y;
  let f = B.func b in
  ignore (Sxe_opt.Constfold.run f);
  (match (Cfg.term (Cfg.block f 0)) with
  | Instr.Jmp l -> Alcotest.(check int) "branch folded to taken side" t l
  | _ -> Alcotest.fail "branch not folded");
  ignore (Sxe_opt.Simplify.run f);
  Alcotest.(check bool) "unreachable emptied" true ((Cfg.body (Cfg.block f e)) = [])

let test_copyprop () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let c = B.mov b ~ty:I32 x in
  let c2 = B.mov b ~ty:I32 c in
  let s = B.add b c2 c2 in
  B.retv b I32 s;
  let f = B.func b in
  ignore (Sxe_opt.Copyprop.run f);
  (* the add now reads the original register *)
  let found = ref false in
  Cfg.iter_instrs
    (fun _ i ->
      match i.Instr.op with
      | Instr.Binop { op = Add; l; r; _ } when l = x && r = x -> found := true
      | _ -> ())
    f;
  Alcotest.(check bool) "copies propagated transitively" true !found

let test_dce () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let dead1 = B.iconst b 5 in
  let _dead2 = B.add b dead1 dead1 in
  B.retv b I32 x;
  let f = B.func b in
  ignore (Sxe_opt.Dce.run f);
  Alcotest.(check int) "dead chain removed" 0 (Cfg.instr_count f)

let test_dce_keeps_effects () =
  let b, params = B.create ~name:"f" ~params:[ Ref; I32 ] ~ret:I32 () in
  let a = List.hd params and i = List.nth params 1 in
  let _unused_load = B.arrload b AI32 a i in
  B.retv b I32 i;
  let f = B.func b in
  ignore (Sxe_opt.Dce.run f);
  Alcotest.(check int) "throwing load kept" 1 (Cfg.instr_count f)

let test_localcse () =
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 in
  let a1 = B.add b x y in
  let a2 = B.add b y x in
  (* commutative: same expression *)
  let s = B.add b a1 a2 in
  B.retv b I32 s;
  let f = B.func b in
  ignore (Sxe_opt.Localcse.run f);
  ignore (Sxe_opt.Copyprop.run f);
  ignore (Sxe_opt.Dce.run f);
  Alcotest.(check int) "one add eliminated" 2 (count_op f is_binop)

let test_localcse_double_extension () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  ignore (B.sext b x);
  ignore (B.sext b x);
  B.retv b I32 x;
  let f = B.func b in
  ignore (Sxe_opt.Localcse.run f);
  Alcotest.(check int) "second extension dropped" 1 (count_op f is_sext)

let test_localcse_respects_redef () =
  (* x is overwritten from elsewhere between the two adds: the second
     add(x, y) computes a different value and must stay *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 and z = List.nth params 2 in
  let a1 = B.add b x y in
  B.mov_to b ~dst:x ~src:z I32;
  let a2 = B.add b x y in
  let s = B.add b a1 a2 in
  B.retv b I32 s;
  let f = B.func b in
  ignore (Sxe_opt.Localcse.run f);
  Alcotest.(check int) "no folding across redefinition" 3 (count_op f is_binop);
  (* whereas i = i + 1 immediately after an identical add IS redundant *)
  let b2, params2 = B.create ~name:"g" ~params:[ I32; I32 ] ~ret:I32 () in
  let p = List.hd params2 and q = List.nth params2 1 in
  let c1 = B.add b2 p q in
  B.binop_to b2 Add ~dst:p p q;
  B.retv b2 I32 c1;
  let g = B.func b2 in
  ignore (Sxe_opt.Localcse.run g);
  ignore p;
  Alcotest.(check int) "pre-redefinition occurrence folded" 1 (count_op g is_binop)

let test_deadstore () =
  (* an overwritten-before-read definition: not live after itself (its
     DU chain is empty, so DCE would remove it too) *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 in
  let t = B.fresh b I32 in
  B.binop_to b Add ~dst:t x y;
  (* dead: t overwritten below before any read *)
  B.binop_to b Mul ~dst:t x y;
  let s = B.add b t x in
  B.retv b I32 s;
  let f = B.func b in
  ignore (Sxe_opt.Deadstore.run f);
  Alcotest.(check int) "dead add removed" 2 (count_op f is_binop);
  (* semantics: result is x*y + x *)
  let caller, _ = B.create ~name:"main" ~params:[] () in
  let a3 = B.iconst caller 3 and a4 = B.iconst caller 4 in
  (match B.call caller ~ret:I32 "f" [ (a3, I32); (a4, I32) ] with
  | Some r -> ignore (B.call caller "checksum" [ (r, I32) ])
  | None -> assert false);
  B.ret caller;
  let p = Helpers.prog_of_func f in
  Sxe_ir.Prog.add_func p (B.func caller);
  p.Sxe_ir.Prog.main <- "main";
  let out = Sxe_vm.Interp.run p in
  Alcotest.(check int64) "value preserved" 15L out.Sxe_vm.Interp.checksum

let test_deadstore_keeps_live () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let t = B.add b x x in
  B.retv b I32 t;
  let f = B.func b in
  ignore (Sxe_opt.Deadstore.run f);
  Alcotest.(check int) "live def kept" 1 (count_op f is_binop)

let test_deadstore_keeps_extensions () =
  (* a dead extension is left to the sign-extension passes; DCE proper
     removes it *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 in
  ignore (B.sext b x);
  ignore (B.zext b x);
  B.retv b I32 y;
  let f = B.func b in
  let g = Clone.clone_func f in
  Alcotest.(check bool) "deadstore: unchanged" false (Sxe_opt.Deadstore.run f);
  Alcotest.(check int) "deadstore: extensions kept" 2 (count_op f Instr.is_ext);
  Alcotest.(check bool) "dce: changed" true (Sxe_opt.Dce.run g);
  Alcotest.(check int) "dce: extensions removed" 0 (count_op g Instr.is_ext)

(* ------------------------------------------------------------------ *)
(* DCE against the DU-chain fixpoint                                    *)
(* ------------------------------------------------------------------ *)

(* The chain-based DCE that {!Sxe_opt.Dce} replaced, kept as its
   reference: rebuild UD/DU chains, drop every side-effect-free
   definition whose DU chain is empty, repeat until nothing changes. *)
let dce_reference (f : Cfg.func) =
  let round () =
    let chains = Sxe_analysis.Chains.build f in
    let dead = ref [] in
    Cfg.iter_instrs
      (fun b i ->
        match Instr.def i.Instr.op with
        | Some _
          when (not (Instr.has_side_effect i.Instr.op))
               && Sxe_analysis.Chains.du_of_instr chains i = [] ->
            dead := (b.Cfg.bid, i.Instr.iid) :: !dead
        | _ -> ())
      f;
    List.iter (fun (bid, iid) -> ignore (Cfg.remove_instr (Cfg.block f bid) iid)) !dead;
    !dead <> []
  in
  let changed = ref false in
  while round () do
    changed := true
  done;
  !changed

(* [Dce.run] and the reference agree on [changed] and on the function
   they leave behind. *)
let check_dce_matches_reference f =
  let g = Clone.clone_func f in
  let changed = Sxe_opt.Dce.run f in
  let expected = dce_reference g in
  Alcotest.(check bool) "changed" expected changed;
  Alcotest.(check string) "function" (Printer.func_to_string g) (Printer.func_to_string f)

let test_dce_unreachable_def () =
  (* B1 is unreachable: its definition of t reaches no use — not even the
     read in its (reachable) successor — so it goes; B0's stays *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let p = List.hd params in
  let t = B.add b p p in
  let b1 = B.new_block b and b2 = B.new_block b in
  B.jmp b b2;
  B.switch b b1;
  B.binop_to b Mul ~dst:t p p;
  B.jmp b b2;
  B.switch b b2;
  B.retv b I32 t;
  let f = B.func b in
  check_dce_matches_reference (Clone.clone_func f);
  ignore (Sxe_opt.Dce.run f);
  Alcotest.(check int) "unreachable def removed" 0 (List.length (Cfg.body (Cfg.block f b1)));
  Alcotest.(check int) "reachable def kept" 1 (List.length (Cfg.body (Cfg.block f 0)))

let test_dce_loop_carried () =
  (* i = i + 1 feeds only itself around the loop: its DU chain holds its
     own use, so it is not dead and must stay *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let p = List.hd params and q = List.nth params 1 in
  let i = B.iconst b 0 in
  let one = B.iconst b 1 in
  let loop = B.new_block b and exit = B.new_block b in
  B.jmp b loop;
  B.switch b loop;
  B.binop_to b Add ~dst:i i one;
  B.br b Lt p q ~ifso:loop ~ifnot:exit;
  B.switch b exit;
  B.retv b I32 p;
  let f = B.func b in
  check_dce_matches_reference (Clone.clone_func f);
  Alcotest.(check bool) "unchanged" false (Sxe_opt.Dce.run f);
  Alcotest.(check int) "loop-carried add kept" 3 (Cfg.instr_count f)

let test_dce_chain_across_blocks () =
  (* a's only use is dead b in the next block: the first round sees a
     live at B0's exit and removes b; a second round removes a *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let p = List.hd params in
  let a = B.iconst b 5 in
  let next = B.new_block b in
  B.jmp b next;
  B.switch b next;
  ignore (B.add b a a);
  B.retv b I32 p;
  let f = B.func b in
  check_dce_matches_reference (Clone.clone_func f);
  Alcotest.(check bool) "changed" true (Sxe_opt.Dce.run f);
  Alcotest.(check int) "whole chain removed" 0 (Cfg.instr_count f)

let seed_gen = QCheck.Gen.int_bound 0x3FFFFFFF

let prop_dce_reference =
  QCheck.Test.make ~name:"dce equals the DU-chain fixpoint on random and mutated CFGs"
    ~count:200
    (QCheck.make ~print:(Printf.sprintf "seed %d") seed_gen)
    (fun s ->
      let rng = Sxe_fuzz.Rng.create ~seed:s in
      let f = Sxe_fuzz.Gen_ir.generate rng in
      if s land 1 = 1 then ignore (Sxe_fuzz.Mutate.mutate_n rng 3 f);
      (* copy propagation and local CSE leave dead copies and operands
         behind, as in the pipeline *)
      ignore (Sxe_opt.Copyprop.run f);
      ignore (Sxe_opt.Localcse.run f);
      check_dce_matches_reference f;
      true)

(* ------------------------------------------------------------------ *)
(* Local CSE kills                                                      *)
(* ------------------------------------------------------------------ *)

let test_localcse_global_kills () =
  (* gload @g twice around [between]: the second becomes a copy only if
     [between] leaves @g alone *)
  let loads between =
    let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
    let y = List.hd params in
    let x1 = B.gload b I32 "g" in
    between b y;
    let x2 = B.gload b I32 "g" in
    B.retv b I32 (B.add b x1 x2);
    let f = B.func b in
    ignore (Sxe_opt.Localcse.run f);
    count_op f is_gload
  in
  Alcotest.(check int) "store to @g kills" 2 (loads (fun b y -> B.gstore b I32 "g" y));
  Alcotest.(check int) "store to @h does not" 1 (loads (fun b y -> B.gstore b I32 "h" y));
  Alcotest.(check int) "a call kills" 2 (loads (fun b y -> ignore (B.call b "checksum" [ (y, I32) ])))

let test_localcse_holder_overwritten () =
  (* a holds add(x, y) until it is overwritten: the second add stays *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 and z = List.nth params 2 in
  let a = B.add b x y in
  B.mov_to b ~dst:a ~src:z I32;
  let c = B.add b x y in
  B.retv b I32 (B.sub b a c);
  let f = B.func b in
  Alcotest.(check bool) "unchanged" false (Sxe_opt.Localcse.run f);
  Alcotest.(check int) "both adds kept" 2
    (count_op f (function Instr.Binop { op = Add; _ } -> true | _ -> false))

let test_localcse_operand_redefined () =
  (* y is redefined by an unrelated op between two sub(x, y) *)
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 in
  let s1 = B.sub b x y in
  B.binop_to b Mul ~dst:y x x;
  let s2 = B.sub b x y in
  B.retv b I32 (B.add b s1 s2);
  let f = B.func b in
  Alcotest.(check bool) "unchanged" false (Sxe_opt.Localcse.run f);
  Alcotest.(check int) "both subs kept" 2
    (count_op f (function Instr.Binop { op = Sub; _ } -> true | _ -> false))

let test_localcse_extension_pairs () =
  (* sext r; sext r collapses across an instruction that only reads r,
     not across one that redefines r *)
  let exts redefine =
    let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
    let r = List.hd params in
    ignore (B.sext b r);
    if redefine then B.binop_to b Add ~dst:r r r else ignore (B.add b r r);
    ignore (B.sext b r);
    B.retv b I32 r;
    let f = B.func b in
    ignore (Sxe_opt.Localcse.run f);
    count_op f is_sext
  in
  Alcotest.(check int) "collapses over a read" 1 (exts false);
  Alcotest.(check int) "kept over a redefinition" 2 (exts true)

let test_split_edges () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  (* a critical edge: B0 branches to B1 and B2; B1 jumps to B2 (B2 has two
     preds, B0 has two succs: B0->B2 is critical) *)
  let b1 = B.new_block b and b2 = B.new_block b in
  B.br b Lt x x ~ifso:b1 ~ifnot:b2;
  B.switch b b1;
  B.jmp b b2;
  B.switch b b2;
  B.retv b I32 x;
  let f = B.func b in
  Sxe_opt.Split_edges.run f;
  (* entry must now be empty with a single successor *)
  let entry = Cfg.block f (Cfg.entry f) in
  Alcotest.(check bool) "entry empty" true ((Cfg.body entry) = []);
  Alcotest.(check int) "entry single succ" 1 (List.length (Cfg.succs entry));
  (* no critical edges remain *)
  let preds = Cfg.preds f in
  Cfg.iter_blocks
    (fun blk ->
      let ss = Cfg.succs blk in
      if List.length ss > 1 then
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "edge B%d->B%d uncritical" blk.Cfg.bid s)
              true
              (List.length preds.(s) <= 1))
          ss)
    f

let test_lcm_hoists_invariant () =
  (* t = x*y recomputed inside a loop with x,y invariant: LCM moves it out *)
  let src =
    {|
void main() {
  int x = 12345; int y = 678; int acc = 0;
  int i = 0;
  while (i < 50) { acc = acc + (x * y); i = i + 1; }
  checksum(acc);
}
|}
  in
  let reference = Helpers.reference_outcome src in
  let prog = Sxe_lang.Frontend.compile src in
  Sxe_opt.Pipeline.run prog;
  Validate.check_prog prog;
  let out = Sxe_vm.Interp.run ~mode:`Canonical prog in
  Alcotest.(check bool) "semantics preserved" true (Sxe_vm.Interp.equivalent reference out)

(* B0 sets up a counted loop; the single-block loop body B1 runs [body]
   on a loop-invariant parameter x, then the counter step. Returns the
   number of [pred] instructions left in B1 after LCM. *)
let lcm_loop_count pred body =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let acc = B.iconst b 0 and i = B.iconst b 0 in
  let one = B.iconst b 1 and n = B.iconst b 10 in
  let loop = B.new_block b and exit = B.new_block b in
  B.jmp b loop;
  B.switch b loop;
  body b ~x ~acc;
  B.binop_to b Add ~dst:i i one;
  B.br b Lt i n ~ifso:loop ~ifnot:exit;
  B.switch b exit;
  B.retv b I32 acc;
  let f = B.func b in
  ignore (Sxe_opt.Lcm.run f);
  count_op_in (Cfg.block f loop) pred

let test_lcm_kills () =
  let gload_then between b ~x ~acc =
    let v = B.gload b I32 "g" in
    B.binop_to b Add ~dst:acc acc v;
    between b ~x ~acc
  in
  Alcotest.(check int) "invariant global read hoisted" 0
    (lcm_loop_count is_gload (gload_then (fun _ ~x:_ ~acc:_ -> ())));
  Alcotest.(check int) "a store to the global keeps it in the loop" 1
    (lcm_loop_count is_gload (gload_then (fun b ~x:_ ~acc -> B.gstore b I32 "g" acc)));
  Alcotest.(check int) "a call keeps it in the loop" 1
    (lcm_loop_count is_gload
       (gload_then (fun b ~x:_ ~acc -> ignore (B.call b "checksum" [ (acc, I32) ]))));
  (* an extension does not kill its own expression: a loop-invariant
     extension moves out of the loop, one whose register changes stays *)
  Alcotest.(check int) "invariant extension hoisted" 0
    (lcm_loop_count is_sext (fun b ~x ~acc ->
         ignore (B.sext b x);
         B.binop_to b Add ~dst:acc acc x));
  Alcotest.(check int) "extension of a loop-carried register kept" 1
    (lcm_loop_count is_sext (fun b ~x:_ ~acc ->
         ignore (B.sext b acc);
         B.binop_to b Add ~dst:acc acc acc))

let test_pipeline_preserves_figure3 () =
  (* the full Step-2 pipeline on a loop-heavy function is semantics
     preserving under the faithful machine after Step 1 *)
  let src =
    {|
global int mem;
void main() {
  int n = 64;
  int[] a = new int[n];
  int k = 0;
  while (k < n) { a[k] = k * 1103515245 + 12345; k = k + 1; }
  mem = n;
  int t = 0;
  int i = mem;
  do {
    i = i - 1;
    int j = a[i];
    j = j & 0x0fffffff;
    t += j;
  } while (i > 0);
  print_int(t);
  checksum(t);
}
|}
  in
  let results = Helpers.check_all_variants ~name:"figure3-ish" src in
  (* baseline executes strictly more extensions than the full algorithm *)
  let base = Helpers.dyn_of results "baseline" in
  let full = Helpers.dyn_of results "new algorithm (all)" in
  Alcotest.(check bool) "full <= baseline" true (Int64.compare full base <= 0)

(* ------------------------------------------------------------------ *)
(* Bit-identity across Step-2 rewrites                                  *)
(* ------------------------------------------------------------------ *)

(* Every registry source (the 24 at scale 1) compiled under each of the
   twelve variants: the stage name and printed function at every
   [stage_check] notification (one per Step-2 pass that changed the
   function), then the printed program, its register counts and every
   [Stats] count — hashed per compilation, in a fixed order. The expected
   value was recorded with the chain-rebuilding DCE and pairwise
   expression kills; an internal change to Step 2 must reproduce it. *)
let step2_digest () =
  let buf = Buffer.create 4096 and acc = Buffer.create 4096 in
  let seal () =
    Buffer.add_string acc (Digest.string (Buffer.contents buf));
    Buffer.clear buf
  in
  let ints l = List.iter (fun n -> Buffer.add_string buf (string_of_int n ^ " ")) l in
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let p = Sxe_lang.Frontend.compile w.source in
      List.iter
        (fun config ->
          let o = Clone.clone_prog p in
          let stage_check ~stage f =
            Buffer.add_string buf stage;
            Buffer.add_string buf (Printer.func_to_string f);
            seal ()
          in
          let s = Sxe_core.Pass.compile ~stage_check config o in
          Buffer.add_string buf (Printer.prog_to_string o);
          Prog.iter_funcs (fun f -> ints [ Cfg.num_regs f; f.Cfg.next_iid ]) o;
          Sxe_core.Stats.(
            ints
              ([ s.generated; s.generated_zext; s.inserted; s.dummies; s.eliminated;
                 s.eliminated_zext; s.eliminated_by_pre; s.remaining; s.remaining_zext ]
              @ Array.to_list s.by_theorem));
          seal ())
        (Sxe_core.Config.measured ()))
    (Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ());
  Digest.to_hex (Digest.string (Buffer.contents acc))

let test_step2_digest () =
  Alcotest.(check string) "step-2 digest" "fb73250096cfd41afc3d933b4a9aea53" (step2_digest ())

let suite =
  [
    Alcotest.test_case "constfold arithmetic" `Quick test_constfold_arith;
    Alcotest.test_case "constfold folds extension" `Quick test_constfold_folds_extension;
    Alcotest.test_case "constfold 32-bit wrap" `Quick test_constfold_wrap;
    Alcotest.test_case "constfold keeps div-by-zero" `Quick test_constfold_division_guard;
    Alcotest.test_case "constfold folds branch" `Quick test_constfold_branch;
    Alcotest.test_case "copy propagation" `Quick test_copyprop;
    Alcotest.test_case "dce removes dead chain" `Quick test_dce;
    Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_effects;
    Alcotest.test_case "local cse (commutative)" `Quick test_localcse;
    Alcotest.test_case "local cse drops re-extension" `Quick test_localcse_double_extension;
    Alcotest.test_case "local cse respects redefinition" `Quick test_localcse_respects_redef;
    Alcotest.test_case "dead store elimination" `Quick test_deadstore;
    Alcotest.test_case "dead store keeps live defs" `Quick test_deadstore_keeps_live;
    Alcotest.test_case "dead store keeps extensions" `Quick test_deadstore_keeps_extensions;
    Alcotest.test_case "dce: unreachable def" `Quick test_dce_unreachable_def;
    Alcotest.test_case "dce: loop-carried increment kept" `Quick test_dce_loop_carried;
    Alcotest.test_case "dce: chain across blocks" `Quick test_dce_chain_across_blocks;
    QCheck_alcotest.to_alcotest prop_dce_reference;
    Alcotest.test_case "local cse: global kills" `Quick test_localcse_global_kills;
    Alcotest.test_case "local cse: holder overwritten" `Quick test_localcse_holder_overwritten;
    Alcotest.test_case "local cse: operand redefined" `Quick test_localcse_operand_redefined;
    Alcotest.test_case "local cse: extension pairs" `Quick test_localcse_extension_pairs;
    Alcotest.test_case "edge splitting" `Quick test_split_edges;
    Alcotest.test_case "lcm preserves semantics" `Quick test_lcm_hoists_invariant;
    Alcotest.test_case "lcm kills" `Quick test_lcm_kills;
    Alcotest.test_case "pipeline on figure-3 loop" `Quick test_pipeline_preserves_figure3;
    Alcotest.test_case "step-2 digest over the registry" `Quick test_step2_digest;
  ]
