(* The traced pass (--trace 1): replays the inputs of all three
   workloads in-process under {!Compose}'s spans, so every per-layer
   metric is measured on the workload that exercises that layer:

   - compile layers: the serve-cold bodies (24 registry sources with
     the seed's unique suffixes, variant [all], emit), [passes] times;
     each body is also compiled untraced by [Compile_one.run_source],
     which gives the fidelity reference and the tracing overhead;
   - serve layers: [Json.parse] and [Cache.key] on the serve-warm
     request lines in-process, then a short daemon session on the warm
     stream, read back through the daemon's [metrics] op;
   - matrix layers: the set-up ([base_of] / [reference_of] /
     [collect_profile]), one untraced [run_suite] pass over both suites,
     then every cell again through the traced composition, compared
     with the untraced measurement.

   Time metrics are seconds per pass: over the 24 sources for the
   compile and serve layers, over the 204 cells for the matrix. *)

module Compile_one = Sxe_serve.Compile_one
module Experiment = Sxe_harness.Experiment
module Monoclock = Sxe_util.Monoclock

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  notes : string list;  (** what failed, for the report *)
  layers : string;  (** JSON: per recorder, per span name: count, total and self seconds *)
}

let timed f =
  let t0 = Monoclock.now_ns () in
  let v = f () in
  (v, Monoclock.elapsed_s t0)

let get h name = match Hashtbl.find_opt h name with Some a -> a | None -> { Span.count = 0; total_s = 0.0; self_s = 0.0 }

(* ------------------------------------------------------------------ *)

let compile_layers ~seed ~passes (bases : Serve_load.base array) =
  let s = Serve_load.stream ~seed ~cold:true (Array.length bases) in
  let r = Span.create () in
  let config = Serve_load.config () and maxlen = Serve_load.maxlen in
  let n = Array.length bases in
  let untraced = ref 0.0 and traced = ref 0.0 and chains = ref 0.0 in
  let notes = ref [] and checks = ref 0 in
  for p = 0 to passes - 1 do
    for k = 0 to n - 1 do
      let req = (p * n) + k in
      let b = bases.(Serve_load.base_of_request s req) in
      let src = b.Serve_load.source ^ Serve_load.suffix s req in
      let o, dt = timed (fun () -> Compile_one.run_source ~emit:true ~config ~maxlen src) in
      untraced := !untraced +. dt;
      Span.set_request r req;
      let c, dt =
        timed (fun () ->
            Span.with_span r "request" (fun () ->
                Compose.run_source r ~emit:true ~config ~maxlen src))
      in
      traced := !traced +. dt;
      chains := !chains +. c.Compose.chains_s;
      incr checks;
      (match o with
      | Error msg -> notes := Printf.sprintf "%s: %s" b.Serve_load.name msg :: !notes
      | Ok o -> (
          match Compose.same_compile c o with
          | None -> ()
          | Some d -> notes := Printf.sprintf "%s: traced %s differs" b.Serve_load.name d :: !notes));
      (* interval analysis and UD/DU chains on their own, on the
         optimized program, with the call ranges certify derives *)
      let prog = c.Compose.prog in
      let call_ranges = Sxe_analysis.Summary.call_ranges (Sxe_analysis.Summary.compute prog) in
      Sxe_ir.Prog.iter_funcs
        (fun f ->
          ignore
            (Span.with_span r "analysis.range_compute" (fun () ->
                 Sxe_analysis.Range.compute ~call_ranges f));
          ignore (Span.with_span r "analysis.chains_build" (fun () -> Sxe_analysis.Chains.build f)))
        prog
    done
  done;
  let h = Span.aggregate (Span.spans r) in
  let per = float passes in
  let tot name = (get h name).Span.total_s /. per in
  let step3 = tot "core.step3" and chains = !chains /. per in
  let certify = tot "check.certify" in
  let range = tot "analysis.range_compute" in
  let metrics =
    [
      ("lang.frontend_s", tot "lang.frontend", "s");
      ("ir.clone_s", tot "ir.clone", "s");
      ("analysis.summary_s", tot "analysis.summary", "s");
      ("core.step1_s", tot "core.step1", "s");
      ("opt.step2_s", tot "opt.step2", "s");
    ]
    @ List.map
        (fun p -> ("opt." ^ p ^ "_s", tot ("opt." ^ p), "s"))
        [ "constfold"; "copyprop"; "localcse"; "simplify"; "dce"; "deadstore"; "lcm" ]
    @ [
        ("core.step3_s", step3, "s");
        ("core.step3.chains_range_s", chains, "s");
        ("core.step3.self_s", step3 -. chains, "s");
        ("ir.validate_s", tot "ir.validate", "s");
        ("check.certify_s", certify, "s");
        ("codegen.emit_s", tot "codegen.emit", "s");
        ("analysis.range_compute_s", range, "s");
        ("analysis.chains_build_s", tot "analysis.chains_build", "s");
        ("check.certify.range_share", range /. certify, "ratio");
        ("trace.compile_untraced_s", !untraced /. per, "s");
        ("trace.overhead_compile", (!traced /. !untraced) -. 1.0, "ratio");
      ]
  in
  (metrics, !checks, List.rev !notes, Span.spans r)

(* ------------------------------------------------------------------ *)

let serve_layers ~seed ~exe ~sock ~log ~conns ~seconds ~reps (bases : Serve_load.base array) =
  let s = Serve_load.stream ~seed ~cold:false (Array.length bases) in
  let r = Span.create () in
  let n = Array.length bases in
  for i = 0 to (reps * n) - 1 do
    Span.set_request r i;
    let line = Serve_load.request_line bases.(Serve_load.base_of_request s i) ~suffix:"" in
    let line = String.sub line 0 (String.length line - 1) in
    let j = Span.with_span r "serve.json_parse" (fun () -> Sxe_serve.Json.parse line) in
    let field k = Option.value ~default:"" (Sxe_serve.Json.str k j) in
    ignore
      (Span.with_span r "serve.cache_key" (fun () ->
           Sxe_serve.Cache.key ~variant:(field "variant") ~arch:"ia64" ~maxlen:Serve_load.maxlen
             ~emit:true ~source:(field "source")))
  done;
  let h = Span.aggregate (Span.spans r) in
  let per = float reps in
  (* a fresh daemon on the warm stream: the first pass over the sources
     misses and compiles, everything after it hits *)
  let d = Daemon.start ~exe ~sock ~log in
  let res =
    Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () ->
        let cs = Serve_load.open_conns ~sock conns in
        let res = Serve_load.run ~cs ~next:(ref 0) ~seconds bases s in
        Serve_load.close_conns cs;
        (res, Daemon.metrics d))
  in
  let load, m = res in
  let m = Option.value ~default:Sxe_serve.Json.Null (Sxe_serve.Json.member "metrics" m) in
  let num path o =
    let rec go o = function
      | [] -> ( match o with Sxe_serve.Json.Int i -> Int64.to_float i | Sxe_serve.Json.Float f -> f | _ -> nan)
      | k :: ks -> ( match Sxe_serve.Json.member k o with Some v -> go v ks | None -> nan)
    in
    go o path
  in
  let hits = num [ "cache"; "hits" ] m and misses = num [ "cache"; "misses" ] m in
  let metrics =
    [
      ("serve.json_parse_s", (get h "serve.json_parse").Span.total_s /. per, "s");
      ("serve.cache_key_s", (get h "serve.cache_key").Span.total_s /. per, "s");
      ("serve.cache_hit_ratio", hits /. (hits +. misses), "ratio");
      ("serve.server_mean_ms", num [ "latency"; "mean_ms" ] m, "ms");
      ("serve.server_max_ms", num [ "latency"; "max_ms" ] m, "ms");
      ("serve.batches", num [ "batches" ] m, "count");
      ("serve.max_queue_depth", num [ "max_queue_depth" ] m, "count");
      ("serve.coalesced", num [ "coalesced" ] m, "count");
    ]
  in
  let l = load.Serve_load.loop in
  let notes =
    (if Loop.failed l > 0 then [ Printf.sprintf "serve session: %d failed replies" (Loop.failed l) ]
     else [])
    @ if load.Serve_load.drained then [] else [ "serve session: not drained" ]
  in
  (metrics, Loop.attempted l, Loop.failed l + (if load.Serve_load.drained then 0 else 1), notes, Span.spans r)

(* ------------------------------------------------------------------ *)

let matrix_layers () =
  let r = Span.create () in
  let ws = Matrix.workloads () in
  List.iter
    (fun w ->
      ignore (Span.with_span r "harness.lower" (fun () -> Experiment.base_of w));
      ignore (Span.with_span r "vm.reference" (fun () -> Experiment.reference_of w));
      let (_ : string -> src:int -> dst:int -> float option) =
        Span.with_span r "harness.profile" (fun () -> Experiment.collect_profile w ())
      in
      ())
    ws;
  (* fidelity reference: the untraced matrix, as [run_suite] computes it *)
  let reference_cells = List.concat_map snd (Matrix.pass (fun f -> f ())) in
  let cells =
    List.concat_map
      (fun suite ->
        List.filter (fun (w : Sxe_workloads.Registry.t) -> w.suite = suite) ws
        |> List.concat_map (fun w -> List.map (fun c -> (w, c)) (Experiment.default_variants ())))
      Matrix.suites
  in
  (* overhead: each cell untraced ([Experiment.run_one], what [run_suite]
     runs per cell) right before its traced replay *)
  let chains = ref 0.0 and untraced = ref 0.0 and traced = ref 0.0 and notes = ref [] in
  let traced_cells =
    List.mapi
      (fun i (w, config) ->
        let profile = Experiment.collect_profile w () in
        let reference = Experiment.reference_of w in
        let _, dt = timed (fun () -> Experiment.run_one ~profile ~reference config w) in
        untraced := !untraced +. dt;
        Span.set_request r i;
        let (m, c), dt = timed (fun () -> Compose.run_cell r ~profile ~reference config w) in
        traced := !traced +. dt;
        chains := !chains +. c;
        m)
      cells
  in
  let failed = ref 0 in
  (try
     List.iter2
       (fun (a : Experiment.measurement) b ->
         if not (Compose.same_cell a b) then begin
           incr failed;
           notes := Printf.sprintf "matrix %s / %s: traced cell differs" a.workload a.variant :: !notes
         end
         else if not a.equivalent then begin
           incr failed;
           notes := Printf.sprintf "matrix %s / %s: not equivalent" a.workload a.variant :: !notes
         end)
       traced_cells reference_cells
   with Invalid_argument _ ->
     incr failed;
     notes := "matrix: traced and untraced cell lists differ in length" :: !notes);
  let h = Span.aggregate (Span.spans r) in
  let tot name = (get h name).Span.total_s in
  let executed =
    List.fold_left (fun a (m : Experiment.measurement) -> Int64.add a m.executed) 0L traced_cells
  in
  let all_cells = List.filter (fun (m : Experiment.measurement) -> m.variant = Matrix.all_variant) traced_cells in
  let sum f = List.fold_left (fun a m -> a +. f m) 0.0 all_cells in
  let dyn, cycles = Matrix.totals traced_cells in
  let metrics =
    [
      ("harness.lower_s", tot "harness.lower", "s");
      ("harness.profile_s", tot "harness.profile", "s");
      ("vm.reference_s", tot "vm.reference", "s");
      ("harness.compile_s", tot "harness.compile", "s");
      ("harness.chains_range_s", !chains, "s");
      ("vm.run_s", tot "vm.run", "s");
      ("vm.executed", Int64.to_float executed, "count");
      ("vm.ns_per_instr", tot "vm.run" *. 1e9 /. Int64.to_float executed, "ns");
      ("core.eliminated", sum (fun m -> float m.stats.Sxe_core.Stats.eliminated), "count");
      ("core.remaining_sext32", sum (fun m -> float m.static_remaining), "count");
      ("vm.dyn_sext32_all", Int64.to_float dyn, "count");
      ("vm.cycles_all", Int64.to_float cycles, "count");
      ("trace.matrix_untraced_s", !untraced, "s");
      ("trace.overhead_matrix", (!traced /. !untraced) -. 1.0, "ratio");
    ]
  in
  (metrics, List.length cells, !failed, List.rev !notes, Span.spans r)

let run ~seed ~exe ~sock ~log ~conns ~out =
  let bases = Serve_load.bases () in
  let cm, cn, cnotes, cspans = compile_layers ~seed ~passes:3 bases in
  let sm, sn, sf, snotes, sspans =
    serve_layers ~seed ~exe ~sock ~log ~conns ~seconds:2.0 ~reps:50 bases
  in
  let mm, mn, mf, mnotes, mspans = matrix_layers () in
  let spans = [ (1, cspans); (2, sspans); (3, mspans) ] in
  let nspans = List.fold_left (fun a (_, s) -> a + Array.length s) 0 spans in
  let layers =
    List.map
      (fun (group, ss) ->
        let h = Span.aggregate ss in
        let rows =
          Hashtbl.fold (fun name a acc -> (name, a) :: acc) h [] |> List.sort compare
          |> List.map (fun (name, (a : Span.agg)) ->
                 Printf.sprintf "\"%s\":{\"count\":%d,\"total_s\":%.9f,\"self_s\":%.9f}"
                   (Sxe_serve.Json.escape name) a.count a.total_s a.self_s)
        in
        Printf.sprintf "\"%s\":{%s}" group (String.concat "," rows))
      [ ("compile", cspans); ("serve", sspans); ("matrix", mspans) ]
  in
  let oc = open_out out in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Span.write_chrome oc spans);
  {
    metrics = cm @ sm @ mm @ [ ("trace.spans", float nspans, "count") ];
    attempted = cn + sn + mn;
    failed = List.length cnotes + sf + mf;
    notes = cnotes @ snotes @ mnotes;
    layers = "{" ^ String.concat "," layers ^ "}";
  }
