(* The traced composition: the same public calls that
   [Sxe_serve.Compile_one.run_source], [Sxe_core.Pass.compile] and
   [Sxe_harness.Experiment.run_one] string together, in the same order,
   each wrapped in a {!Span}. Nothing in the library is instrumented;
   the spans live entirely in these files.

   The copy can drift from the library's own composition, so every use
   is paired with a fidelity check ({!same_compile}, {!same_cell}):
   the traced result must equal the untraced one on printed IR, static
   counts, certify verdict and assembly (compile path), or on every
   measured counter (matrix path). *)

module Config = Sxe_core.Config
module Stats = Sxe_core.Stats

let span = Span.with_span

(* [Sxe_opt.Pipeline.run_func]: [iterate], then LCM and a second
   [iterate], one span per pass call. *)
let step2 r ~pre f =
  let iterate () =
    let rounds = ref 0 and continue_ = ref true in
    while !continue_ && !rounds < 12 do
      incr rounds;
      let c1 = span r "opt.constfold" (fun () -> Sxe_opt.Constfold.run f) in
      let c2 = span r "opt.copyprop" (fun () -> Sxe_opt.Copyprop.run f) in
      let c3 = span r "opt.localcse" (fun () -> Sxe_opt.Localcse.run f) in
      let c4 = span r "opt.simplify" (fun () -> Sxe_opt.Simplify.run f) in
      let c5 = span r "opt.dce" (fun () -> Sxe_opt.Dce.run f) in
      let c6 = span r "opt.deadstore" (fun () -> Sxe_opt.Deadstore.run f) in
      continue_ := c1 || c2 || c3 || c4 || c5 || c6
    done
  in
  iterate ();
  if pre then begin
    ignore (span r "opt.lcm" (fun () -> Sxe_opt.Lcm.run f));
    iterate ()
  end

(* [Sxe_core.Pass.compile]. Returns the statistics and the summed
   chains+range time that [Eliminate.run] reports. *)
let compile r ?profile (config : Config.t) (p : Sxe_ir.Prog.t) : Stats.t * float =
  let stats = Stats.create () in
  if config.Config.inline then ignore (span r "opt.inline" (fun () -> Sxe_opt.Inline.run p));
  let call_ranges =
    span r "analysis.summary" (fun () ->
        Sxe_analysis.Summary.call_ranges (Sxe_analysis.Summary.compute p))
  in
  let chains = ref 0.0 in
  Sxe_ir.Prog.iter_funcs
    (fun f ->
      span r "core.step1" (fun () -> Sxe_core.Convert.run config f stats);
      span r "opt.step2" (fun () ->
          let before = Sxe_core.Eliminate.count_sext32 f in
          step2 r ~pre:config.Config.pre f;
          stats.Stats.eliminated_by_pre <-
            stats.Stats.eliminated_by_pre
            + max 0 (before - Sxe_core.Eliminate.count_sext32 f));
      span r "core.step3" (fun () ->
          match config.Config.elimination with
          | Config.Elim_none -> ()
          | Config.Elim_bwd_flow -> Sxe_core.Demand.run f stats
          | Config.Elim_ud_du ->
              let edge_prob =
                Option.map (fun p ~src ~dst -> p f.Sxe_ir.Cfg.name ~src ~dst) profile
              in
              chains :=
                !chains +. Sxe_core.Eliminate.run ?edge_prob ~call_ranges config f stats))
    p;
  stats.Stats.remaining <- Sxe_core.Eliminate.count_sext32_prog p;
  stats.Stats.remaining_zext <- Sxe_core.Eliminate.count_zext32_prog p;
  (stats, !chains)

type compiled = {
  prog : Sxe_ir.Prog.t;
  stats : Stats.t;
  errors : Sxe_check.Certify.error list;
  asm : string option;
  chains_s : float;
}

(* [Sxe_serve.Compile_one.run_source] (frontend errors are not
   expected here: every input is a registry source). *)
let run_source r ~emit ~(config : Config.t) ~maxlen src : compiled =
  let base = span r "lang.frontend" (fun () -> Sxe_lang.Frontend.compile src) in
  let prog = span r "ir.clone" (fun () -> Sxe_ir.Clone.clone_prog base) in
  let stats, chains_s = span r "core.compile" (fun () -> compile r config prog) in
  span r "ir.validate" (fun () -> Sxe_ir.Validate.check_prog prog);
  let errors = span r "check.certify" (fun () -> Sxe_check.Check.certify_prog ~maxlen prog) in
  let asm =
    if not emit then None
    else begin
      let b = Buffer.create 1024 in
      Sxe_ir.Prog.iter_funcs
        (fun f ->
          span r "codegen.emit" (fun () ->
              let a = Sxe_codegen.Emit.emit_func ~arch:config.Config.arch f in
              Buffer.add_string b (Sxe_codegen.Emit.to_string a)))
        prog;
      Some (Buffer.contents b)
    end
  in
  { prog; stats; errors; asm; chains_s }

(* The static counters of a compile, times excluded. *)
let counts (s : Stats.t) =
  [
    ("generated", s.Stats.generated);
    ("generated_zext", s.Stats.generated_zext);
    ("inserted", s.Stats.inserted);
    ("dummies", s.Stats.dummies);
    ("eliminated", s.Stats.eliminated);
    ("eliminated_zext", s.Stats.eliminated_zext);
    ("eliminated_by_pre", s.Stats.eliminated_by_pre);
    ("remaining", s.Stats.remaining);
    ("remaining_zext", s.Stats.remaining_zext);
    ("t1", s.Stats.by_theorem.(1));
    ("t2", s.Stats.by_theorem.(2));
    ("t3", s.Stats.by_theorem.(3));
    ("t4", s.Stats.by_theorem.(4));
  ]

(* Fidelity of the compile path: [None] when the traced result equals
   [Compile_one]'s, else what differs. *)
let same_compile (c : compiled) (o : Sxe_serve.Compile_one.outcome) =
  let diffs =
    List.filter_map
      (fun (what, same) -> if same then None else Some what)
      [
        ( "printed IR",
          Sxe_ir.Printer.prog_to_string c.prog
          = Sxe_ir.Printer.prog_to_string o.Sxe_serve.Compile_one.prog );
        ("stats", counts c.stats = counts o.Sxe_serve.Compile_one.stats);
        ( "certify verdict",
          Sxe_check.Check.errors_to_json c.errors
          = Sxe_check.Check.errors_to_json o.Sxe_serve.Compile_one.errors );
        ("asm", c.asm = o.Sxe_serve.Compile_one.asm);
      ]
  in
  if diffs = [] then None else Some (String.concat ", " diffs)

(* The matrix's execution fuel ([Experiment]'s own bound). *)
let fuel = 4_000_000_000L

(* [Sxe_harness.Experiment.run_one] on the frozen base, plus the
   printed optimized IR for the fidelity check. *)
let run_cell r ~profile ~(reference : Sxe_vm.Interp.outcome) (config : Config.t)
    (w : Sxe_workloads.Registry.t) =
  let prog =
    span r "ir.clone" (fun () -> Sxe_ir.Clone.clone_prog (Sxe_harness.Experiment.base_of w))
  in
  let stats, chains_s = span r "harness.compile" (fun () -> compile r ~profile config prog) in
  span r "ir.validate" (fun () -> Sxe_ir.Validate.check_prog prog);
  let out = span r "vm.run" (fun () -> Sxe_vm.Interp.run ~mode:`Faithful ~fuel prog) in
  let m : Sxe_harness.Experiment.measurement =
    {
      workload = w.Sxe_workloads.Registry.name;
      variant = config.Config.name;
      dyn_sext32 = out.Sxe_vm.Interp.sext32;
      dyn_zext32 = out.Sxe_vm.Interp.zext32;
      static_remaining = stats.Stats.remaining;
      static_remaining_zext = stats.Stats.remaining_zext;
      cycles = out.Sxe_vm.Interp.cycles;
      executed = out.Sxe_vm.Interp.executed;
      equivalent = Sxe_vm.Interp.equivalent reference out;
      stats;
    }
  in
  (m, chains_s)

(* Fidelity of the matrix path: every field of the measurement except
   the compile times. *)
let same_cell (a : Sxe_harness.Experiment.measurement)
    (b : Sxe_harness.Experiment.measurement) =
  let open Sxe_harness.Experiment in
  a.workload = b.workload && a.variant = b.variant && a.dyn_sext32 = b.dyn_sext32
  && a.dyn_zext32 = b.dyn_zext32
  && a.static_remaining = b.static_remaining
  && a.static_remaining_zext = b.static_remaining_zext
  && a.cycles = b.cycles && a.executed = b.executed && a.equivalent = b.equivalent
  && counts a.stats = counts b.stats
