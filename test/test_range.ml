(** Value-range analysis tests: transfer precision, branch refinement,
    loop widening/narrowing, and soundness against the interpreter. *)

open Sxe_ir
open Sxe_ir.Types
open Sxe_analysis
module B = Builder

let range_of_last_def f reg =
  (* range of [reg] after the last instruction of the entry block *)
  let blk = Cfg.block f 0 in
  let last = List.nth (Cfg.body blk) (List.length (Cfg.body blk) - 1) in
  let t = Range.compute f in
  Range.after t ~bid:0 ~iid:last.Instr.iid reg

let test_const_and_arith () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 10 in
  let y = B.iconst b 3 in
  let s = B.add b x y in
  let d = B.div b s y in
  B.retv b I32 d;
  let f = B.func b in
  Alcotest.(check (pair int64 int64)) "10+3" (13L, 13L) (range_of_last_def f s);
  Alcotest.(check (pair int64 int64)) "13/3" (4L, 4L) (range_of_last_def f d)

let test_and_mask () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 0xFF in
  let r = B.and_ b x m in
  B.retv b I32 r;
  let f = B.func b in
  Alcotest.(check (pair int64 int64)) "x & 0xff" (0L, 255L) (range_of_last_def f r)

let test_rem_range () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 10 in
  let r = B.rem_ b x m in
  B.retv b I32 r;
  Alcotest.(check (pair int64 int64)) "x % 10" (-9L, 9L) (range_of_last_def (B.func b) r)

let test_branch_refinement () =
  (* if (x < 10 && x >= 0) then ... range of x in the then-branch *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let ten = B.iconst b 10 in
  let zero = B.iconst b 0 in
  let b1 = B.new_block b and b2 = B.new_block b and b3 = B.new_block b in
  B.br b Lt x ten ~ifso:b1 ~ifnot:b3;
  B.switch b b1;
  B.br b Ge x zero ~ifso:b2 ~ifnot:b3;
  B.switch b b2;
  let probe = B.add b x zero in
  B.retv b I32 probe;
  B.switch b b3;
  B.retv b I32 x;
  let f = B.func b in
  let t = Range.compute f in
  (* at the entry of b2, x is in [0, 9] *)
  let lo, hi =
    let blk = Cfg.block f b2 in
    let first = List.hd (Cfg.body blk) in
    Range.before t ~bid:b2 ~iid:first.Instr.iid x
  in
  Alcotest.(check (pair int64 int64)) "refined x" (0L, 9L) (lo, hi)

let test_loop_counter () =
  (* for (i = 0; i < 100; i++): in the body, i in [0, 99] *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let i = B.iconst b 0 in
  let hundred = B.iconst b 100 in
  let one = B.iconst b 1 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Lt i hundred ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i one in
  B.binop_to b Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  let blk = Cfg.block f body in
  let first = List.hd (Cfg.body blk) in
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  ignore probe;
  Alcotest.(check (pair int64 int64)) "loop body counter" (0L, 99L) (lo, hi);
  (* after the loop, i >= 100 *)
  let rlo, _rhi =
    let eblk = Cfg.block f ex in
    ignore eblk;
    (* query before the terminator: use the entry state via a probe on a
       register untouched in ex — the exit block has no body, so query the
       branch refinement through [before] of the terminator is not
       supported; instead check the body upper bound held. *)
    (100L, 100L)
  in
  ignore rlo

let test_loop_variable_bound () =
  (* for (i = 0; i < n; i++) with n itself only branch-bounded: widening
     first pushes i to the type maximum, then the narrowing passes must
     recover the [i < n] body bound from the back edge *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let n = List.hd params in
  let thousand = B.iconst b 1000 in
  let zero = B.iconst b 0 in
  let i = B.mov b ~ty:I32 zero in
  let one = B.iconst b 1 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.br b Lt n thousand ~ifso:h ~ifnot:ex;
  B.switch b h;
  B.br b Lt i n ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i zero in
  B.binop_to b Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  let first = List.hd (Cfg.body (Cfg.block f body)) in
  ignore probe;
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  Alcotest.(check int64) "body lower bound survives widening" 0L lo;
  (* n < 1000 on the loop path, so i < n keeps i <= 998 in the body *)
  Alcotest.(check int64) "body upper bound recovered from i < n" 998L hi

let test_array_refinement () =
  (* after a[i], i is within [0, 2^31-2] *)
  let b, params = B.create ~name:"f" ~params:[ Ref; I32 ] ~ret:I32 () in
  let a = List.hd params and i = List.nth params 1 in
  let v = B.arrload b AI32 a i in
  let probe = B.add b i v in
  B.retv b I32 probe;
  let f = B.func b in
  let t = Range.compute f in
  let blk = Cfg.block f 0 in
  let add = List.nth (Cfg.body blk) 1 in
  let lo, hi = Range.before t ~bid:0 ~iid:add.Instr.iid i in
  Alcotest.(check int64) "lower bound" 0L lo;
  Alcotest.(check int64) "upper bound" (Int64.sub Range.i32_max 1L) hi

let test_w8_boundary_narrowing () =
  (* A truncating extension keeps an in-window range exact and collapses
     anything that pokes past a window boundary, at both edges. *)
  let probe lo hi mk_ext expect =
    let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
    let x = List.hd params in
    let lo_c = B.iconst b lo and hi_c = B.iconst b hi in
    let b1 = B.new_block b and b2 = B.new_block b and b3 = B.new_block b in
    B.br b Ge x lo_c ~ifso:b1 ~ifnot:b3;
    B.switch b b1;
    B.br b Le x hi_c ~ifso:b2 ~ifnot:b3;
    B.switch b b2;
    (* x in [lo, hi] here; apply the extension under test *)
    let ext = mk_ext b x in
    B.retv b I32 x;
    B.switch b b3;
    B.retv b I32 x;
    let f = B.func b in
    let t = Range.compute f in
    Alcotest.(check (pair int64 int64))
      (Printf.sprintf "[%d,%d]" lo hi)
      expect
      (Range.after t ~bid:b2 ~iid:ext.Instr.iid x)
  in
  let sext8 b x = B.sext b ~from:W8 x in
  let sext16 b x = B.sext b ~from:W16 x in
  (* exactly the window: exact range survives *)
  probe (-128) 127 sext8 (-128L, 127L);
  probe 0 127 sext8 (0L, 127L);
  (* one past either boundary: collapse to the full window *)
  probe 0 128 sext8 (-128L, 127L);
  probe (-129) 0 sext8 (-128L, 127L);
  (* W16 boundaries behave identically at their window *)
  probe (-32768) 32767 sext16 (-32768L, 32767L);
  probe (-32769) 32767 sext16 (-32768L, 32767L);
  probe 100 32768 sext16 (-32768L, 32767L)

let test_zext_boundary_narrowing () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 200 in
  let r = B.and_ b x m in
  (* r in [0, 200]: inside the zext8 window, so the range is kept *)
  let z = B.zext b ~from:W8 r in
  B.retv b I32 r;
  let f = B.func b in
  let t = Range.compute f in
  Alcotest.(check (pair int64 int64))
    "in-window range survives zext8" (0L, 200L)
    (Range.after t ~bid:0 ~iid:z.Instr.iid r);
  (* a possibly-negative operand collapses to the full [0, 255] window *)
  let b2, params2 = B.create ~name:"g" ~params:[ I32 ] ~ret:I32 () in
  let y = List.hd params2 in
  let z2 = B.zext b2 ~from:W8 y in
  B.retv b2 I32 y;
  let g = B.func b2 in
  let t2 = Range.compute g in
  Alcotest.(check (pair int64 int64))
    "unknown operand collapses to the window" (0L, 255L)
    (Range.after t2 ~bid:0 ~iid:z2.Instr.iid y)

let test_negative_stride_loop () =
  (* for (i = 100; i > 0; i -= 3): in the body i is in [1, 100]; the
     descending update must not destroy the lower bound recovered from
     the back edge. *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let i = B.iconst b 100 in
  let zero = B.iconst b 0 in
  let three = B.iconst b 3 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Gt i zero ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i zero in
  B.binop_to b Sub ~dst:i i three;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  ignore probe;
  let first = List.hd (Cfg.body (Cfg.block f body)) in
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  Alcotest.(check int64) "body upper bound" 100L hi;
  Alcotest.(check int64) "body lower bound from i > 0" 1L lo;
  (* after the decrement, i may go as low as -2 *)
  let dec = List.nth (Cfg.body (Cfg.block f body)) 1 in
  let lo2, _hi2 = Range.after t ~bid:body ~iid:dec.Instr.iid i in
  Alcotest.(check int64) "post-decrement lower bound" (-2L) lo2

(* soundness: for random straight-line arithmetic on a random input, the
   interpreted 32-bit value lies within the computed range *)
let prop_range_sound =
  let open QCheck in
  Test.make ~name:"range analysis is sound on straight-line code" ~count:300
    (pair (list (pair (int_bound 6) small_signed_int)) small_signed_int)
    (fun (ops, input) ->
      let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
      let x = ref (List.hd params) in
      let regs = ref [ !x ] in
      List.iter
        (fun (sel, k) ->
          let c = B.iconst b k in
          let pick l = List.nth l (abs k mod List.length l) in
          let r =
            match sel mod 6 with
            | 0 -> B.add b (pick !regs) c
            | 1 -> B.sub b (pick !regs) c
            | 2 -> B.and_ b (pick !regs) c
            | 3 -> B.mul b (pick !regs) c
            | 4 -> B.or_ b (pick !regs) c
            | _ -> B.xor b (pick !regs) c
          in
          regs := r :: !regs;
          x := r)
        ops;
      B.retv b I32 !x;
      let f = B.func b in
      let t = Range.compute f in
      (* interpret with the given input *)
      let p = Helpers.prog_of_func f in
      let caller, _ = B.create ~name:"main" ~params:[] () in
      let arg = B.const caller ~ty:I32 (Sxe_ir.Eval.sext32 (Int64.of_int input)) in
      (match B.call caller ~ret:I32 "f" [ (arg, I32) ] with
      | Some r ->
          ignore (B.call caller "checksum" [ (r, I32) ]);
          B.ret caller
      | None -> assert false);
      Sxe_ir.Prog.add_func p (B.func caller);
      p.Sxe_ir.Prog.main <- "main";
      let out = Sxe_vm.Interp.run ~mode:`Canonical p in
      match out.Sxe_vm.Interp.trap with
      | Some _ -> true (* nothing to check *)
      | None ->
          (* recover the returned value from the checksum mix: checksum =
             0 * prime + v = v *)
          let v = out.Sxe_vm.Interp.checksum in
          let blk = Cfg.block f 0 in
          if (Cfg.body blk) = [] then true
          else begin
            let last = List.nth (Cfg.body blk) (List.length (Cfg.body blk) - 1) in
            match Instr.def last.Instr.op with
            | Some d ->
                let lo, hi = Range.after t ~bid:0 ~iid:last.Instr.iid d in
                Int64.compare lo v <= 0 && Int64.compare v hi <= 0
            | None -> true
          end)

(* ------------------------------------------------------------------ *)
(* In-place state hazards                                              *)
(* ------------------------------------------------------------------ *)

let iv = Alcotest.(pair int64 int64)
let first_iid f bid = (List.hd (Cfg.body (Cfg.block f bid))).Instr.iid

let test_self_loop () =
  (* h: i = i + 1; br (i < 10) h ex — the header is its own predecessor,
     so its entry join reads the exit state computed from the entry being
     widened *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let i = B.iconst b 0 in
  let one = B.iconst b 1 and ten = B.iconst b 10 in
  let h = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.binop_to b Add ~dst:i i one;
  B.br b Lt i ten ~ifso:h ~ifnot:ex;
  B.switch b ex;
  let probe = B.add b i one in
  B.retv b I32 probe;
  let f = B.func b in
  let t = Range.compute f in
  let inc = first_iid f h in
  Alcotest.check iv "header entry" (0L, 9L) (Range.before t ~bid:h ~iid:inc i);
  Alcotest.check iv "after the increment" (1L, 10L) (Range.after t ~bid:h ~iid:inc i);
  Alcotest.check iv "loop exit" (10L, 10L) (Range.before t ~bid:ex ~iid:(first_iid f ex) i);
  Alcotest.check iv "exit state" (11L, 11L) (Range.at_exit t ~bid:ex probe)

let test_same_target_branch () =
  (* br (x < 10) b1 b1: both edges of a taken-and-fallthrough pair reach
     b1, which learns nothing from the compare; the predecessor table
     folds the duplicate edge into one entry *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let m = B.iconst b 255 and ten = B.iconst b 10 in
  let x = B.and_ b (List.hd params) m in
  let b1 = B.new_block b in
  B.br b Lt x ten ~ifso:b1 ~ifnot:b1;
  B.switch b b1;
  let probe = B.add b x ten in
  B.retv b I32 probe;
  let f = B.func b in
  Alcotest.(check int) "duplicate edge listed once" 1
    (List.length (List.filter (( = ) 0) (Cfg.preds f).(b1)));
  let t = Range.compute f in
  Alcotest.check iv "unrefined" (0L, 255L) (Range.before t ~bid:b1 ~iid:(first_iid f b1) x);
  Alcotest.check iv "sum" (10L, 265L) (Range.at_exit t ~bid:b1 probe)

let test_self_compare_branch () =
  (* br (x < x): the right operand's refinement reads the left one's
     already-refined interval, so order matters on the taken edge *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let m = B.iconst b 255 in
  let x = B.and_ b (List.hd params) m in
  let so = B.new_block b and nt = B.new_block b in
  B.br b Lt x x ~ifso:so ~ifnot:nt;
  List.iter
    (fun blk ->
      B.switch b blk;
      B.retv b I32 (B.add b x m))
    [ so; nt ];
  let f = B.func b in
  let t = Range.compute f in
  Alcotest.check iv "taken edge" (1L, 254L) (Range.before t ~bid:so ~iid:(first_iid f so) x);
  Alcotest.check iv "fallthrough edge" (0L, 255L) (Range.before t ~bid:nt ~iid:(first_iid f nt) x)

let test_no_tracked_registers () =
  (* only I64 registers, around a loop: zero-width states *)
  let b, params = B.create ~name:"f" ~params:[ I64 ] ~ret:I64 () in
  let n = List.hd params in
  let i = B.lconst b 0L and one = B.lconst b 1L in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b ~w:W64 Lt i n ~ifso:body ~ifnot:ex;
  B.switch b body;
  B.binop_to b ~w:W64 Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I64 i;
  let f = B.func b in
  let t = Range.compute f in
  let inc = first_iid f body in
  Alcotest.check iv "untracked before" Range.top (Range.before t ~bid:body ~iid:inc i);
  Alcotest.check iv "untracked after" Range.top (Range.after t ~bid:body ~iid:inc i);
  Alcotest.check iv "out-of-range register" Range.top (Range.at_exit t ~bid:ex (Cfg.num_regs f))

(* every [before]/[after] answer at every instruction of [f], and every
   [at_exit] answer, for register [r] *)
let all_answers t f r =
  List.concat_map
    (fun bid ->
      List.concat_map
        (fun (i : Instr.t) ->
          [ Range.before t ~bid ~iid:i.iid r; Range.after t ~bid ~iid:i.iid r ])
        (Cfg.body (Cfg.block f bid))
      @ [ Range.at_exit t ~bid r ])
    (List.init (Cfg.num_blocks f) Fun.id)

let check_top_everywhere what t f r =
  List.iter (Alcotest.check iv what Range.top) (all_answers t f r)

let test_never_set_registers () =
  (* A loop whose counter is refined and widened, beside three I32
     registers nothing sets: [u] is mentioned by no instruction, the
     parameter [p] is only read, and [c] is read only by [checksum]. *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let p = List.hd params in
  let u = B.fresh b I32 and c = B.fresh b I32 in
  let i = B.iconst b 0 in
  let one = B.iconst b 1 and ten = B.iconst b 10 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Lt i ten ~ifso:body ~ifnot:ex;
  B.switch b body;
  let s = B.add b i p in
  ignore (B.call b "checksum" [ (c, I32) ]);
  B.binop_to b Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 s;
  let f = B.func b in
  let t = Range.compute f in
  check_top_everywhere "unmentioned register" t f u;
  check_top_everywhere "read-only parameter" t f p;
  check_top_everywhere "checksum-only register" t f c;
  Alcotest.check iv "the counter is still bounded" (0L, 9L)
    (Range.before t ~bid:body ~iid:(first_iid f body) i)

let test_no_mentioned_registers () =
  (* I32 registers exist (an unused parameter, an unused fresh register)
     but only I64 code runs, around a loop *)
  let b, params = B.create ~name:"f" ~params:[ I32; I64 ] ~ret:I64 () in
  let p = List.hd params and n = List.nth params 1 in
  let u = B.fresh b I32 in
  let i = B.lconst b 0L and one = B.lconst b 1L in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b ~w:W64 Lt i n ~ifso:body ~ifnot:ex;
  B.switch b body;
  B.binop_to b ~w:W64 Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I64 i;
  let f = B.func b in
  let t = Range.compute f in
  check_top_everywhere "unused parameter" t f p;
  check_top_everywhere "unused register" t f u;
  check_top_everywhere "I64 counter" t f i

(* b0: x = p & 255; y = q & 127; w = 50; br (x >= w) b2 b1
   b1: y = 200; jmp m                    — x in [0, 49]
   b2: br (x cond r) m ex                — x in [50, 255]
   m:  the merge, reached from b1 first and over b2's refined edge second *)
let refined_merge ~self =
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let m255 = B.iconst b 255 and m127 = B.iconst b 127 and w = B.iconst b 50 in
  let x = B.and_ b (List.hd params) m255 in
  let y = B.and_ b (List.nth params 1) m127 in
  let b2 = B.new_block b in
  let b1 = B.new_block b in
  let m = B.new_block b in
  let ex = B.new_block b in
  B.br b Ge x w ~ifso:b2 ~ifnot:b1;
  B.switch b b1;
  B.mov_to b ~dst:y ~src:(B.iconst b 200) I32;
  B.jmp b m;
  B.switch b b2;
  B.br b Lt x (if self then x else y) ~ifso:m ~ifnot:ex;
  B.switch b m;
  B.retv b I32 (B.add b x y);
  B.switch b ex;
  B.retv b I32 x;
  let f = B.func b in
  Alcotest.(check (list int)) "the refined edge comes second" [ b1; b2 ] (Cfg.preds f).(m);
  let t = Range.compute f in
  let at_m r = Range.before t ~bid:m ~iid:(first_iid f m) r in
  (at_m x, at_m y)

let test_merge_over_refined_edge () =
  (* b2 -> m refines x < y: x to [50, 126] and y to [51, 127] *)
  let x, y = refined_merge ~self:false in
  Alcotest.check iv "x: [0, 49] join [50, 126]" (0L, 126L) x;
  Alcotest.check iv "y: [200, 200] join [51, 127]" (51L, 200L) y

let test_merge_over_self_compare_edge () =
  (* b2 -> m refines x < x: the left refinement gives [50, 254], the
     right one sees it and gives [51, 254]; b1 contributes [0, 49] *)
  let x, y = refined_merge ~self:true in
  Alcotest.check iv "x: [0, 49] join [51, 254]" (0L, 254L) x;
  Alcotest.check iv "y: [200, 200] join [0, 127]" (0L, 200L) y

let test_one_block () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let m = B.iconst b 15 in
  let x = B.and_ b (List.hd params) m in
  let y = B.add b x m in
  B.retv b I32 y;
  let f = B.func b in
  let t = Range.compute f in
  let def_y = List.nth (Cfg.body (Cfg.block f 0)) 2 in
  Alcotest.check iv "before the add" Range.top (Range.before t ~bid:0 ~iid:def_y.Instr.iid y);
  Alcotest.check iv "after the add" (15L, 30L) (Range.after t ~bid:0 ~iid:def_y.Instr.iid y);
  Alcotest.check iv "at exit" (0L, 15L) (Range.at_exit t ~bid:0 x)

let test_threshold_lookup () =
  (* the binary search against the linear scan it replaced *)
  let lo_min = Int64.to_int Range.i32_min and hi_max = Int64.to_int Range.i32_max in
  let floor_ref th x = Array.fold_left (fun b t -> if t <= x && t > b then t else b) lo_min th in
  let ceil_ref th x = Array.fold_left (fun b t -> if t >= x && t < b then t else b) hi_max th in
  let arrays =
    [
      [||];
      [| 7 |];
      [| -5; 0; 3; 100 |];
      [| lo_min; -1; 0; 1; 255; 65535; hi_max |];
      [| lo_min; lo_min + 1; -2; 41; 42; 43; hi_max - 1; hi_max |];
    ]
  in
  List.iter
    (fun th ->
      let probes =
        [ lo_min; lo_min + 1; -1; 0; 1; hi_max - 1; hi_max ]
        @ List.concat_map (fun t -> [ t - 1; t; t + 1 ]) (Array.to_list th)
      in
      List.iter
        (fun x ->
          if x >= lo_min && x <= hi_max then begin
            Alcotest.(check int) (Printf.sprintf "floor %d" x) (floor_ref th x) (Range.threshold_floor th x);
            Alcotest.(check int) (Printf.sprintf "ceil %d" x) (ceil_ref th x) (Range.threshold_ceil th x)
          end)
        probes)
    arrays

(* ------------------------------------------------------------------ *)
(* Bit-identity across representation changes                          *)
(* ------------------------------------------------------------------ *)

(* Every [before]/[after] answer at every instruction and every [at_exit]
   answer, for every register of every function of the 24 registry
   sources (frontend output and variant [all]), analysed with the call
   ranges certify derives — hashed, per block, in a fixed order. The
   expected value was recorded with the dense all-register states the
   slot-indexed in-place fixpoint replaced; an internal change to [Range]
   must reproduce it. *)
let answers_digest () =
  let answers = Buffer.create 4096 and blocks = Buffer.create 4096 in
  let add (lo, hi) =
    Buffer.add_int64_le answers lo;
    Buffer.add_int64_le answers hi
  in
  let digest_prog p =
    let call_ranges = Summary.call_ranges (Summary.compute p) in
    Prog.iter_funcs
      (fun f ->
        let t = Range.compute ~call_ranges f in
        let nregs = Cfg.num_regs f in
        for bid = 0 to Cfg.num_blocks f - 1 do
          Buffer.clear answers;
          List.iter
            (fun (i : Instr.t) ->
              for r = 0 to nregs - 1 do
                add (Range.before t ~bid ~iid:i.iid r);
                add (Range.after t ~bid ~iid:i.iid r)
              done)
            (Cfg.body (Cfg.block f bid));
          for r = 0 to nregs - 1 do
            add (Range.at_exit t ~bid r)
          done;
          Buffer.add_string blocks (Digest.string (Buffer.contents answers))
        done)
      p
  in
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let p = Sxe_lang.Frontend.compile w.source in
      digest_prog p;
      let o = Clone.clone_prog p in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) o);
      digest_prog o)
    (Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ());
  Digest.to_hex (Digest.string (Buffer.contents blocks))

let test_answers_digest () =
  Alcotest.(check string) "range answers digest" "e0f1059cb23393728491ab01ac1a2996" (answers_digest ())

let suite =
  [
    Alcotest.test_case "constants and arithmetic" `Quick test_const_and_arith;
    Alcotest.test_case "and mask" `Quick test_and_mask;
    Alcotest.test_case "rem range" `Quick test_rem_range;
    Alcotest.test_case "branch refinement" `Quick test_branch_refinement;
    Alcotest.test_case "loop counter" `Quick test_loop_counter;
    Alcotest.test_case "loop with variable bound" `Quick test_loop_variable_bound;
    Alcotest.test_case "array access refinement" `Quick test_array_refinement;
    Alcotest.test_case "W8/W16 window boundaries" `Quick test_w8_boundary_narrowing;
    Alcotest.test_case "zext window boundaries" `Quick test_zext_boundary_narrowing;
    Alcotest.test_case "negative stride loop" `Quick test_negative_stride_loop;
    Alcotest.test_case "self-loop block" `Quick test_self_loop;
    Alcotest.test_case "branch with one target" `Quick test_same_target_branch;
    Alcotest.test_case "branch comparing a register to itself" `Quick test_self_compare_branch;
    Alcotest.test_case "no tracked registers" `Quick test_no_tracked_registers;
    Alcotest.test_case "never-set registers answer top" `Quick test_never_set_registers;
    Alcotest.test_case "no mentioned I32 register" `Quick test_no_mentioned_registers;
    Alcotest.test_case "merge over a refined edge" `Quick test_merge_over_refined_edge;
    Alcotest.test_case "merge over a self-compare edge" `Quick test_merge_over_self_compare_edge;
    Alcotest.test_case "one-block function" `Quick test_one_block;
    Alcotest.test_case "threshold lookup" `Quick test_threshold_lookup;
    Alcotest.test_case "answers digest over the registry" `Quick test_answers_digest;
    QCheck_alcotest.to_alcotest prop_range_sound;
  ]
