(** Shared helpers for the test suites: quick IR construction and
    differential compile-and-run over the measured variants. *)

open Sxe_ir
module B = Builder

(** Wrap a single function into a program with that function as main. *)
let prog_of_func ?(globals = []) (f : Cfg.func) =
  let p = Prog.create ~main:f.Cfg.name () in
  List.iter (fun (n, ty) -> Prog.declare_global p n ty) globals;
  Prog.add_func p f;
  p

(** Reference outcome of MiniJ source: canonical mode on the raw lowering. *)
let reference_outcome ?fuel src =
  let prog = Sxe_lang.Frontend.compile src in
  Sxe_vm.Interp.run ~mode:`Canonical ?fuel prog

(** Compile [src] under [config] and run faithfully. *)
let variant_outcome ?fuel (config : Sxe_core.Config.t) src =
  let prog = Sxe_lang.Frontend.compile src in
  let stats = Sxe_core.Pass.compile config prog in
  Validate.check_prog prog;
  let out = Sxe_vm.Interp.run ~mode:`Faithful ?fuel prog in
  (out, stats, prog)

(** Check that every variant of [src] behaves like the canonical
    reference; returns per-variant (name, dynamic sext32, outcome). *)
let check_all_variants ?fuel ?arch ?maxlen ~name src =
  let reference = reference_outcome ?fuel src in
  List.map
    (fun (config : Sxe_core.Config.t) ->
      let out, stats, _ = variant_outcome ?fuel config src in
      if not (Sxe_vm.Interp.equivalent reference out) then
        Alcotest.failf "%s: variant %S diverges: ref(trap=%s, sum=%Ld) got(trap=%s, sum=%Ld)"
          name config.Sxe_core.Config.name
          (Option.value ~default:"none" reference.Sxe_vm.Interp.trap)
          reference.Sxe_vm.Interp.checksum
          (Option.value ~default:"none" out.Sxe_vm.Interp.trap)
          out.Sxe_vm.Interp.checksum;
      (config.Sxe_core.Config.name, out.Sxe_vm.Interp.sext32, stats))
    (Sxe_core.Config.measured ?arch ?maxlen ())

let dyn_of results vname =
  match List.find_opt (fun (n, _, _) -> n = vname) results with
  | Some (_, d, _) -> d
  | None -> Alcotest.failf "no variant %S" vname

(** Equality on every [Interp.outcome] field, counters included. *)
let outcome : Sxe_vm.Interp.outcome Alcotest.testable =
  let open Sxe_vm.Interp in
  let pp ppf (o : outcome) =
    Format.fprintf ppf
      "{trap=%s; ret=%s; checksum=%Ld; output=%S; executed=%Ld; sext32=%Ld; \
       sext_sub=%Ld; zext32=%Ld; zext_sub=%Ld; cycles=%Ld}"
      (Option.value ~default:"none" o.trap)
      (match o.ret with None -> "none" | Some v -> Int64.to_string v)
      o.checksum o.output o.executed o.sext32 o.sext_sub o.zext32 o.zext_sub
      o.cycles
  in
  Alcotest.testable pp ( = )

(** All three engines — structural, unfused precode, fused precode — on
    the same program; every outcome field must agree. *)
let check3 ?fuel ?mode msg (p : Prog.t) =
  let st = Sxe_vm.Interp.run ?fuel ?mode ~engine:`Structural p in
  let pre = Sxe_vm.Interp.run ?fuel ?mode ~engine:`Precode ~fused:false p in
  let fused = Sxe_vm.Interp.run ?fuel ?mode ~engine:`Precode ~fused:true p in
  Alcotest.check outcome (msg ^ ": structural vs precode") st pre;
  Alcotest.check outcome (msg ^ ": precode vs fused") pre fused;
  fused
