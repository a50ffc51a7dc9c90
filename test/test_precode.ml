(** Pre-decoded engine tests: bit-identical outcomes — dynamic counters
    included — against the structural interpreter, across the committed
    fuzz corpus, the workload registry, every trap path, the
    generation-counter cache invalidation, and the edge cases of the
    unboxed value representation (frame pool, global slots, integer
    arrays, local kernels); plus the allocation gate on the dispatch
    loop. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder

let outcome = Helpers.outcome

(** Both engines on the same program, every field compared. *)
let check_parity ?fuel msg ~mode (p : Prog.t) =
  let st = Sxe_vm.Interp.run ~mode ?fuel ~engine:`Structural p in
  let pre = Sxe_vm.Interp.run ~mode ?fuel ~engine:`Precode p in
  Alcotest.check outcome msg st pre;
  pre

(* ------------------------------------------------------------------ *)
(* Committed corpus and registry workloads                             *)
(* ------------------------------------------------------------------ *)

let corpus_dir = "../corpus"

let test_corpus_parity () =
  let entries = Sxe_fuzz.Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  List.iter
    (fun (name, case) ->
      let base = Sxe_fuzz.Oracle.prog_of_case case in
      ignore
        (check_parity ~fuel:400_000L
           (Printf.sprintf "%s (canonical, unoptimized)" name)
           ~mode:`Canonical (Clone.clone_prog base));
      let opt = Clone.clone_prog base in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) opt);
      ignore
        (check_parity ~fuel:400_000L
           (Printf.sprintf "%s (faithful, full algorithm)" name)
           ~mode:`Faithful opt))
    entries

let test_workload_parity () =
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      ignore
        (check_parity
           (Printf.sprintf "%s (canonical, unoptimized)" w.name)
           ~mode:`Canonical (Clone.clone_prog base));
      let opt = Clone.clone_prog base in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) opt);
      ignore
        (check_parity
           (Printf.sprintf "%s (faithful, full algorithm)" w.name)
           ~mode:`Faithful opt))
    (Sxe_workloads.Registry.all ~scale:1 ())

let test_unsigned_parity () =
  (* The zero-extension residue class: all three engines agree on every
     counter — zext32 included — and the full algorithm strictly reduces
     the dynamic zero-extension count the guarded baseline pays. *)
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      ignore
        (check_parity
           (Printf.sprintf "%s (canonical, unoptimized)" w.name)
           ~mode:`Canonical (Clone.clone_prog base));
      let run config =
        let opt = Clone.clone_prog base in
        ignore (Sxe_core.Pass.compile config opt);
        Helpers.check3 ~mode:`Faithful
          (Printf.sprintf "%s (faithful, %s)" w.name config.Sxe_core.Config.name)
          opt
      in
      let b = run (Sxe_core.Config.baseline ()) in
      let full = run (Sxe_core.Config.new_all ()) in
      Alcotest.(check bool)
        (w.name ^ ": baseline pays dynamic zero extensions")
        true
        (Int64.compare b.Sxe_vm.Interp.zext32 0L > 0);
      Alcotest.(check bool)
        (w.name ^ ": full algorithm eliminates dynamic zero extensions")
        true
        (Int64.compare full.Sxe_vm.Interp.zext32 b.Sxe_vm.Interp.zext32 < 0))
    (Sxe_workloads.Registry.unsigned ~scale:1 ())

(* ------------------------------------------------------------------ *)
(* Trap paths: identical trap name AND identical counters at the trap  *)
(* ------------------------------------------------------------------ *)

let check_trap msg ?fuel ~expect p =
  let out = check_parity msg ?fuel ~mode:`Faithful p in
  Alcotest.(check (option string)) (msg ^ ": trap name") (Some expect)
    out.Sxe_vm.Interp.trap

let test_fuel_exhaustion () =
  (* entry jumps to itself: both engines must cut off at the same tick *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  B.jmp b (B.current b);
  check_trap "infinite loop" ~fuel:1_000L ~expect:"fuel-exhausted"
    (Helpers.prog_of_func (B.func b))

let test_wild_access () =
  (* bounds check passes on the low 32 bits while the full register is
     out of range — the faithful machine's signature trap *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let len = B.iconst b 10 in
  let a = B.newarr b AI32 len in
  let c1 = B.const b ~ty:I32 0x7FFFFFFFL in
  let c2 = B.const b ~ty:I32 0x7FFFFFFFL in
  let t = B.add b c1 c2 in
  let four = B.iconst b 4 in
  let idx = B.add b t four in
  let v = B.arrload b AI32 a idx in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  check_trap "wild access" ~expect:"wild-access" (Helpers.prog_of_func (B.func b))

let test_stack_overflow () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  (match B.call b "main" [] with Some _ -> assert false | None -> ());
  B.ret b;
  check_trap "unbounded recursion" ~expect:"stack-overflow"
    (Helpers.prog_of_func (B.func b))

let test_division_by_zero () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let one = B.iconst b 1 in
  let zero = B.iconst b 0 in
  let q = B.div b one zero in
  ignore (B.call b "checksum" [ (q, I32) ]);
  B.ret b;
  check_trap "division by zero" ~expect:"division-by-zero"
    (Helpers.prog_of_func (B.func b))

(* ------------------------------------------------------------------ *)
(* Cache invalidation                                                  *)
(* ------------------------------------------------------------------ *)

let test_cache_invalidation () =
  (* Run once (populating the per-function decode cache), mutate the
     function through the Cfg API, run again: the second run must see
     the mutation, and still match the structural engine. *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let c = B.iconst b 5 in
  ignore (B.call b "checksum" [ (c, I32) ]);
  B.ret b;
  let f = B.func b in
  let p = Helpers.prog_of_func f in
  let first = Sxe_vm.Interp.run ~engine:`Precode p in
  Cfg.iter_instrs
    (fun blk i ->
      match i.Instr.op with
      | Instr.Const { dst; ty; v = 5L } -> Cfg.set_op blk i (Instr.Const { dst; ty; v = 7L })
      | _ -> ())
    f;
  let second = check_parity "after mutation" ~mode:`Faithful p in
  Alcotest.(check bool) "mutation visible to the cached engine" false
    (Int64.equal first.Sxe_vm.Interp.checksum second.Sxe_vm.Interp.checksum)

(* ------------------------------------------------------------------ *)
(* Value representation: word stores, frame pool, local kernels        *)
(* ------------------------------------------------------------------ *)

let modes = [ (`Faithful, "faithful"); (`Canonical, "canonical") ]

(* 64-bit edge values: sign bits of every width, [INT64_MIN], and
   values whose upper bits are garbage for a narrower width *)
let edge_values =
  [
    0L; 1L; -1L; 0x7FL; 0x80L; 0xFFL; 0x7FFFL; 0x8000L; 0xFFFFL;
    0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFFL; 0x1_0000_0000L;
    Int64.min_int; Int64.max_int; 0x1234_5678_9ABC_DEF0L;
    0xFEDC_BA98_7654_3210L; 0x0000_0001_8000_0080L;
  ]

(* A function that first checksums [nread] registers it never writes
   (they must read 0: a fresh or re-zeroed frame), then fills [nregs]
   registers with [INT64_MIN + k] so a frame reused without re-zeroing
   would leak them to the next callee at the same depth. Returns its
   parameter plus one. *)
let frame_func name ~nregs ~nread =
  let b, ps = B.create ~name ~params:[ I64 ] ~ret:I64 () in
  let p = List.hd ps in
  let unwritten = List.init nread (fun _ -> B.fresh b I64) in
  List.iter (fun r -> ignore (B.call b "checksum" [ (r, I64) ])) unwritten;
  for k = 0 to nregs - 1 do
    ignore (B.lconst b (Int64.add Int64.min_int (Int64.of_int k)))
  done;
  let one = B.lconst b 1L in
  let r = B.add b ~w:W64 p one in
  B.retv b I64 r;
  B.func b

let test_frame_pool_parity () =
  (* depth 1 is reused by callees with fewer, more, then fewer registers:
     the pool's grow path (small -> big) and its re-zero path (big ->
     small, a larger frame handed to a smaller callee) *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = ref (B.lconst b 10L) in
  List.iter
    (fun fn ->
      match B.call b ~ret:I64 fn [ (!x, I64) ] with
      | Some r ->
          ignore (B.call b "checksum" [ (r, I64) ]);
          x := r
      | None -> assert false)
    [ "small"; "big"; "small"; "big"; "small" ];
  ignore (B.call b "print_long" [ (!x, I64) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  Prog.add_func p (frame_func "small" ~nregs:2 ~nread:3);
  Prog.add_func p (frame_func "big" ~nregs:64 ~nread:40);
  List.iter
    (fun (mode, mname) ->
      let o = Helpers.check3 ~mode ("frame pool, " ^ mname) p in
      Alcotest.(check string) "five calls returned" "15\n" o.Sxe_vm.Interp.output)
    modes

(* Fresh global names per engine run: the pre-decoded engine interns a
   symbol to a process-wide slot at decode time, so only a symbol first
   seen by this run lands past the run's initial [gslot_count ()] and
   drives the store-growth path. *)
let globals_serial = ref 0

let globals_prog () =
  incr globals_serial;
  let sym k = Printf.sprintf "edge_g%d_%d" !globals_serial k in
  let b, _ = B.create ~name:"main" ~params:[] () in
  let check r = ignore (B.call b "checksum" [ (r, I64) ]) in
  (* unwritten slots read as zero, before and after growth *)
  check (B.gload b I64 (sym 0));
  check (B.gload b ~lext:LSign I32 (sym 1));
  List.iteri
    (fun k v ->
      let c = B.lconst b v in
      B.gstore b I64 (sym (10 + k)) c;
      check (B.gload b I64 (sym (10 + k)));
      (* an I32 global stores the zero-extended low half *)
      B.gstore b I32 (sym (100 + k)) c;
      check (B.gload b ~lext:LSign I32 (sym (100 + k)));
      check (B.gload b ~lext:LZero I32 (sym (100 + k))))
    edge_values;
  (* every stored value survives the later growth steps *)
  List.iteri
    (fun k _ ->
      check (B.gload b I64 (sym (10 + k)));
      check (B.gload b ~lext:LZero I32 (sym (100 + k))))
    edge_values;
  check (B.gload b I64 (sym 2));
  check (B.gload b ~lext:LZero I32 (sym 3));
  B.ret b;
  Helpers.prog_of_func (B.func b)

let test_globals_parity () =
  List.iter
    (fun (mode, mname) ->
      let msg = "globals, " ^ mname in
      let st = Sxe_vm.Interp.run ~mode ~engine:`Structural (globals_prog ()) in
      let pre =
        Sxe_vm.Interp.run ~mode ~engine:`Precode ~fused:false (globals_prog ())
      in
      let fused =
        Sxe_vm.Interp.run ~mode ~engine:`Precode ~fused:true (globals_prog ())
      in
      Alcotest.check outcome (msg ^ ": structural vs precode") st pre;
      Alcotest.check outcome (msg ^ ": precode vs fused") pre fused)
    modes

let test_array_parity () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let n = List.length edge_values in
  List.iter
    (fun elem ->
      let a = B.newarr b elem (B.iconst b n) in
      List.iteri
        (fun k v -> B.arrstore b elem a (B.iconst b k) (B.lconst b v))
        edge_values;
      List.iteri
        (fun k _ ->
          List.iter
            (fun lext ->
              let r = B.arrload b ~lext elem a (B.iconst b k) in
              ignore (B.call b "checksum" [ (r, I64) ]);
              ignore (B.call b "print_long" [ (r, I64) ]))
            [ LSign; LZero ])
        edge_values)
    [ AI8; AI16; AI32; AI64 ];
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  List.iter (fun (mode, mname) -> ignore (Helpers.check3 ~mode ("arrays, " ^ mname) p)) modes

let test_bad_handle_parity () =
  (* a non-handle value used as an array: null traps; anything else
     escapes as the heap lookup's bounds error, the same in both engines *)
  let run_with h =
    let b, _ = B.create ~name:"main" ~params:[] () in
    ignore (B.newarr b AI32 (B.iconst b 2));
    let r = B.arrload b AI32 (B.lconst b h) (B.iconst b 0) in
    ignore (B.call b "checksum" [ (r, I32) ]);
    B.ret b;
    let p = Helpers.prog_of_func (B.func b) in
    let go engine =
      match Sxe_vm.Interp.run ~engine ~fused:false p with
      | o -> Option.value ~default:"none" o.Sxe_vm.Interp.trap
      | exception e -> Printexc.to_string e
    in
    Alcotest.(check string)
      (Printf.sprintf "handle %Ld" h)
      (go `Structural) (go `Precode)
  in
  List.iter run_with [ 0L; 5L; -3L; Int64.min_int ]

let test_local_kernels () =
  let module P = Sxe_vm.Precode in
  let i64 = Alcotest.int64 in
  List.iter
    (fun v ->
      let chk name k e = Alcotest.check i64 (Printf.sprintf "%s %Lx" name v) (e v) (k v) in
      chk "low32" P.low32 Eval.low32;
      chk "sext32" P.sext32 Eval.sext32;
      chk "zext32" P.zext32 Eval.zext32;
      chk "sext16" P.sext16 Eval.sext16;
      chk "zext16" P.zext16 Eval.zext16;
      chk "sext8" P.sext8 Eval.sext8;
      chk "zext8" P.zext8 Eval.zext8;
      List.iter
        (fun (elem, w) ->
          chk "elem_store" (P.elem_store elem) (Eval.zext_from w);
          chk "elem_load sign" (P.elem_load elem LSign) (Eval.sext_from w);
          chk "elem_load zero" (P.elem_load elem LZero) (Eval.zext_from w))
        [ (AI8, W8); (AI16, W16); (AI32, W32); (AI64, W64) ])
    edge_values;
  let floats =
    [
      0.0; -0.0; 1.5; -1.5; 2147483647.0; 2147483647.5; 2147483648.0;
      -2147483648.0; -2147483648.5; -2147483649.0; 9.2e18; -9.2e18;
      9223372036854775807.0; -9223372036854775808.0; 1e300; -1e300;
      Float.infinity; Float.neg_infinity; Float.nan;
    ]
  in
  List.iter
    (fun f ->
      Alcotest.check i64 (Printf.sprintf "d2i %h" f) (Eval.d2i f) (P.d2i f);
      Alcotest.check i64 (Printf.sprintf "d2l %h" f) (Eval.d2l f) (P.d2l f);
      List.iter
        (fun g ->
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "fcmp %h %h" f g)
                (Eval.fcmp c f g) (P.fcmp c f g))
            [ Eq; Ne; Lt; Le; Gt; Ge ])
        floats)
    floats

(* The allocation gate: a register write, an array store or a global
   store must not allocate. Minor words per executed instruction over a
   run whose decoded images are already cached (decoding is per-function
   set-up, not dispatch). Deterministic, not timed. A boxed [int64] per
   register write reads ~1.25 here; a cross-module helper taking or
   returning an [int64] in the dispatch loop brings that back. *)
let test_allocation_gate () =
  List.iter
    (fun wname ->
      List.iter
        (fun fused ->
          let w = Sxe_workloads.Registry.find ~scale:1 wname in
          let prog = Sxe_lang.Frontend.compile w.Sxe_workloads.Registry.source in
          ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog);
          ignore (Sxe_vm.Interp.run ~engine:`Precode ~fused prog);
          let w0 = Gc.minor_words () in
          let o = Sxe_vm.Interp.run ~engine:`Precode ~fused prog in
          let words = Gc.minor_words () -. w0 in
          let per = words /. Int64.to_float o.Sxe_vm.Interp.executed in
          Printf.printf "%s (fused=%b): %.4f minor words per instruction\n" wname
            fused per;
          if per > 0.1 then
            Alcotest.failf "%s (fused=%b): %.3f minor words per instruction > 0.1"
              wname fused per)
        [ false; true ])
    [ "compress"; "Numeric Sort" ]

let suite =
  [
    Alcotest.test_case "parity: committed corpus" `Quick test_corpus_parity;
    Alcotest.test_case "parity: registry workloads" `Quick test_workload_parity;
    Alcotest.test_case "parity: unsigned workloads (3 engines + zext counts)"
      `Quick test_unsigned_parity;
    Alcotest.test_case "trap: fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "trap: wild access" `Quick test_wild_access;
    Alcotest.test_case "trap: stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "trap: division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "decode cache invalidated by mutation" `Quick
      test_cache_invalidation;
    Alcotest.test_case "repr: frame pool grow and re-zero (3 engines)" `Quick
      test_frame_pool_parity;
    Alcotest.test_case "repr: global slot growth and unwritten reads (3 engines)"
      `Quick test_globals_parity;
    Alcotest.test_case "repr: i8/i16/i32/i64 array edge values (3 engines)" `Quick
      test_array_parity;
    Alcotest.test_case "repr: non-handle array base" `Quick test_bad_handle_parity;
    Alcotest.test_case "repr: local kernels match Eval" `Quick test_local_kernels;
    Alcotest.test_case "alloc: minor words per instruction <= 0.1" `Quick
      test_allocation_gate;
  ]
