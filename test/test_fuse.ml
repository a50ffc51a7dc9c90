(** Superinstruction-fusion tests: the branch-target barrier (a fused
    group never shadows a jump target), bit-identical fuel exhaustion
    mid-superinstruction (every chained opcode included), traffic for
    every fusion rule on the table workloads, and the (generation, fused)
    keying of the decode cache. The broad three-engine parity sweeps
    live in [Test_precode] and the fuzz oracle; these cases pin the
    fusion-specific edges. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder

(** Sweep the fuel budget across every instruction boundary of [p]:
    each constituent of a superinstruction ticks and traps exactly where
    its plain counterpart would, so all three engines must agree on the
    truncated counters for every cutoff — including cutoffs that land in
    the middle of a fused group. Returns the unbounded outcome. *)
let fuel_sweep msg (p : Prog.t) =
  let full = Helpers.check3 (msg ^ " unbounded") p in
  let total = Int64.to_int full.Sxe_vm.Interp.executed in
  Alcotest.(check bool) (msg ^ ": runs long enough to sweep") true (total > 20);
  for fuel = 1 to total + 1 do
    let out = Helpers.check3 ~fuel:(Int64.of_int fuel) (Printf.sprintf "%s fuel=%d" msg fuel) p in
    Alcotest.(check (option string))
      (Printf.sprintf "%s fuel=%d trap" msg fuel)
      (if fuel < total then Some "fuel-exhausted" else None)
      out.Sxe_vm.Interp.trap
  done;
  full

(** A 10-iteration loop around [body]: [i] counts from 0 to 10, the
    body block ends in the back edge, and the exit block checksums the
    registers [body] returns. *)
let loop ?globals body =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let i = B.iconst b 0 in
  let lim = B.iconst b 10 in
  let s = B.iconst b 5 in
  let head = B.new_block b in
  let blk = B.new_block b in
  let exit_ = B.new_block b in
  B.jmp b head;
  B.switch b head;
  B.br b Lt i lim ~ifso:blk ~ifnot:exit_;
  B.switch b blk;
  let outs = body b ~i ~s in
  B.jmp b head;
  B.switch b exit_;
  List.iter (fun r -> ignore (B.call b "checksum" [ (r, I32) ])) outs;
  B.ret b;
  Helpers.prog_of_func ?globals (B.func b)

(** A 10-iteration counting loop whose body flattens to
    [Const; Add; Mov; Br] — the compress loop-step shape: the const-arith
    pair fuses, the mov-br pair fuses, and the loop head is a branch
    target that heads a fused group. *)
let counting_loop () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let i = B.iconst b 0 in
  let lim = B.iconst b 10 in
  let body = B.new_block b in
  let exit_ = B.new_block b in
  B.jmp b body;
  B.switch b body;
  let one = B.iconst b 1 in
  let t = B.add b i one in
  B.mov_to b ~dst:i ~src:t I32;
  B.br b Lt i lim ~ifso:body ~ifnot:exit_;
  B.switch b exit_;
  ignore (B.call b "checksum" [ (i, I32) ]);
  B.ret b;
  Helpers.prog_of_func (B.func b)

let main_func (p : Prog.t) = Hashtbl.find p.Prog.funcs p.Prog.main

(* disasm lines are [%4d %-5s %s %s]: offset, a [B<bid>:] block-start
   marker, a [.] on slots shadowed by a preceding fused group, opcode. *)
let disasm_lines p =
  String.split_on_char '\n'
    (Sxe_vm.Precode.disasm (Sxe_vm.Precode.get_decoded ~canonical:false (main_func p)))

let heads_opcode p name =
  List.exists
    (fun line ->
      String.length line > 12 && line.[11] <> '.'
      && String.sub line 13 (String.length line - 13) = name)
    (disasm_lines p)

(* ------------------------------------------------------------------ *)
(* Branch targets                                                      *)
(* ------------------------------------------------------------------ *)

let shadowed_block_starts listing =
  List.filter
    (fun line ->
      String.length line > 11 && line.[11] = '.'
      && (let mark = String.trim (String.sub line 5 5) in
          String.length mark > 0 && mark.[0] = 'B'))
    (String.split_on_char '\n' listing)

let test_branch_target_barrier () =
  (* A fused group must never shadow a branch target: jumping into the
     middle of a group would otherwise skip or double-charge its head
     constituents. A block start may HEAD a group (execution enters at
     the head either way) — the counting loop's body block does exactly
     that, so also assert fusion actually happened there. *)
  let p = counting_loop () in
  ignore (Helpers.check3 "counting loop" p);
  let img = Sxe_vm.Precode.get_decoded ~canonical:false (main_func p) in
  Alcotest.(check bool) "loop fused at all" true (Sxe_vm.Precode.fused_total img > 0);
  Alcotest.(check (list string)) "no shadowed block start (hand-built loop)" []
    (shadowed_block_starts (Sxe_vm.Precode.disasm img));
  (* ... and across every optimized workload function *)
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let prog = Sxe_lang.Frontend.compile w.source in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog);
      Prog.iter_funcs
        (fun f ->
          let img = Sxe_vm.Precode.get_decoded ~canonical:false f in
          match shadowed_block_starts (Sxe_vm.Precode.disasm img) with
          | [] -> ()
          | l ->
              Alcotest.failf "%s/%s: fused group shadows a branch target:\n%s" w.name
                f.Cfg.name (String.concat "\n" l))
        prog)
    (Sxe_workloads.Registry.all ~scale:1 ())

(* ------------------------------------------------------------------ *)
(* Fuel exhaustion mid-superinstruction                                *)
(* ------------------------------------------------------------------ *)

let test_fuel_mid_superinstruction () =
  let p = counting_loop () in
  Alcotest.(check bool) "ConstBin formed" true (heads_opcode p "ConstBin");
  Alcotest.(check bool) "MovBr formed" true (heads_opcode p "MovBr");
  ignore (fuel_sweep "counting loop" p)

(* Loop body [Const; Mul; Const; Add] + [Const; Add; Mov; Jmp]: the
   first half chains into BinBin, the loop step into BinMovJmp. *)
let binbin_loop () =
  loop (fun b ~i ~s ->
      let three = B.iconst b 3 in
      let t = B.mul b s three in
      let one = B.iconst b 1 in
      B.binop_to b Add ~dst:s t one;
      let step = B.iconst b 1 in
      let n = B.add b i step in
      B.mov_to b ~dst:i ~src:n I32;
      [ s; t ])

(* Loop body [Const; Mul; Sext] + [Const; Add; Sext; Mov; Jmp]: the
   re-extended product is a BinSext, the re-extended loop step a
   BinSextMovJmp. The multiplier overflows 32 bits, so every
   re-extension changes the register. *)
let binsext_loop () =
  loop (fun b ~i ~s ->
      let k = B.iconst b 100_003 in
      B.binop_to b Mul ~dst:s s k;
      ignore (B.sext b s);
      let step = B.iconst b 1 in
      let n = B.add b i step in
      ignore (B.sext b n);
      B.mov_to b ~dst:i ~src:n I32;
      [ s ])

(* Numeric Sort's random-number step: [GLoad I32; Const; Mul; Const;
   Add; GStore I32] chains into GLoadBinBin. *)
let gload_loop () =
  loop ~globals:[ ("seed", I32) ] (fun b ~i ~s:_ ->
      let g = B.gload b ~lext:LSign I32 "seed" in
      let a = B.iconst b 1_103_515_245 in
      let t = B.mul b g a in
      let c = B.iconst b 12_345 in
      let u = B.add b t c in
      B.gstore b I32 "seed" u;
      let step = B.iconst b 1 in
      let n = B.add b i step in
      B.mov_to b ~dst:i ~src:n I32;
      [ u ])

let test_fuel_through_chains () =
  List.iter
    (fun (name, p, ops) ->
      List.iter
        (fun op ->
          Alcotest.(check bool) (name ^ ": " ^ op ^ " formed") true (heads_opcode p op))
        ops;
      ignore (fuel_sweep name p))
    [
      ("binbin loop", binbin_loop (), [ "BinBin"; "BinMovJmp" ]);
      ("binsext loop", binsext_loop (), [ "BinSext"; "BinSextMovJmp" ]);
      ("gload loop", gload_loop (), [ "GLoadBinBin" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Zero extensions under a fuel sweep                                  *)
(* ------------------------------------------------------------------ *)

let zext_loop () =
  (* Loop body: [ArrStore; Zext; ArrLoad; Add; Add; Mov; Br] — a masked
     subscript — and a tail block that reads back through
     [ArrLoad; Zext]; the zext32 counter must agree at every cutoff *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let n = B.iconst b 8 in
  let a = B.newarr b AI32 n in
  let i = B.iconst b 0 in
  let one = B.iconst b 1 in
  let s = B.iconst b 0 in
  let body = B.new_block b in
  let exit_ = B.new_block b in
  B.jmp b body;
  B.switch b body;
  B.arrstore b AI32 a i i;
  ignore (B.zext b i);
  let v = B.arrload b AI32 a i in
  B.binop_to b Add ~dst:s s v;
  let t = B.add b i one in
  B.mov_to b ~dst:i ~src:t I32;
  B.br b Lt i n ~ifso:body ~ifnot:exit_;
  B.switch b exit_;
  let i3 = B.iconst b 3 in
  let w = B.arrload b AI32 a i3 in
  ignore (B.zext b w);
  ignore (B.call b "checksum" [ (s, I32) ]);
  ignore (B.call b "checksum" [ (w, I32) ]);
  B.ret b;
  Helpers.prog_of_func (B.func b)

let test_fuel_through_zext_loop () =
  let full = fuel_sweep "zext loop" (zext_loop ()) in
  Alcotest.(check int64) "loop observes zero extensions" 9L full.Sxe_vm.Interp.zext32

(* ------------------------------------------------------------------ *)
(* Every rule has traffic                                              *)
(* ------------------------------------------------------------------ *)

let test_every_rule_forms () =
  (* A rule earns its place by forming groups on the table workloads:
     decode every function of the 17 programs, unoptimized and under
     each measured variant, and require at least one group per rule. *)
  let seen = Hashtbl.create 16 in
  let count prog =
    Prog.iter_funcs
      (fun f ->
        List.iter
          (fun (rule, _) -> Hashtbl.replace seen rule ())
          (Sxe_vm.Precode.fusion_stats (Sxe_vm.Precode.decode ~canonical:false f)))
      prog
  in
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      count base;
      List.iter
        (fun config ->
          let p = Clone.clone_prog base in
          ignore (Sxe_core.Pass.compile config p);
          count p)
        (Sxe_core.Config.measured ()))
    (Sxe_workloads.Registry.all ~scale:1 ());
  List.iter
    (fun rule ->
      if not (Hashtbl.mem seen rule) then
        Alcotest.failf "fusion rule %S forms no group on any table workload" rule)
    Sxe_vm.Precode.rule_names

(* ------------------------------------------------------------------ *)
(* Cache keying                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_keyed_by_selection () =
  (* The per-function cache is keyed by (generation, mode, fused):
     switching fusion between runs must re-decode — never serve the
     other image — and asking again the same way must hit. *)
  let p = counting_loop () in
  let f = main_func p in
  let fused1 = Sxe_vm.Precode.get_decoded ~fused:true ~canonical:false f in
  let off = Sxe_vm.Precode.get_decoded ~fused:false ~canonical:false f in
  let fused2 = Sxe_vm.Precode.get_decoded ~canonical:false f in
  Alcotest.(check bool) "fused image has groups" true
    (Sxe_vm.Precode.fused_total fused1 > 0);
  Alcotest.(check bool) "off image has none" true
    (Sxe_vm.Precode.fused_total off = 0);
  Alcotest.(check bool) "same selection hits the cache" true (fused1 == fused2);
  Alcotest.(check bool) "selections get distinct images" true (not (fused1 == off));
  (* mutation invalidates every image *)
  Cfg.iter_instrs
    (fun blk i ->
      match i.Instr.op with
      | Instr.Const { dst; ty; v = 10L } -> Cfg.set_op blk i (Instr.Const { dst; ty; v = 3L })
      | _ -> ())
    f;
  let fused3 = Sxe_vm.Precode.get_decoded ~canonical:false f in
  Alcotest.(check bool) "mutation drops the cached image" true (not (fused3 == fused1));
  ignore (Helpers.check3 "after mutation" p)

let suite =
  [
    Alcotest.test_case "fused groups never shadow a branch target" `Quick
      test_branch_target_barrier;
    Alcotest.test_case "fuel exhaustion mid-superinstruction" `Quick
      test_fuel_mid_superinstruction;
    Alcotest.test_case "fuel cutoffs inside chained groups" `Quick
      test_fuel_through_chains;
    Alcotest.test_case "fuel sweep through the zext loop" `Quick
      test_fuel_through_zext_loop;
    Alcotest.test_case "every fusion rule forms a group" `Quick test_every_rule_forms;
    Alcotest.test_case "decode cache keyed by fusion selection" `Quick
      test_cache_keyed_by_selection;
  ]
