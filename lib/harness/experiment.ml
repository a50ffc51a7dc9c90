(** Experiment runner: compile each workload under each variant, execute it
    on the faithful 64-bit machine, and collect the paper's quantities —
    dynamic counts of remaining 32-bit sign extensions (Tables 1-2,
    Figures 11-12), cost-model cycles (Figures 13-14) and compile-time
    breakdowns (Table 3).

    Profile-directed order determination works as in the paper's
    interpreter+JIT: a profiling run of the baseline-compiled program
    collects branch statistics, which are valid for every gen-def variant
    because Step 1 + Step 2 produce the same CFG for all of them.

    The matrix never recompiles a workload from source per cell: the
    freshly-lowered base program is built once, frozen, and every variant
    cell works on a cheap {!Sxe_ir.Clone.clone_prog} of it. The canonical
    reference outcome and the branch profile — shared by all 12 variants
    of a workload — are memoized {e per domain} ({!Sxe_par.Dcache}), so
    cell-level parallel scheduling recomputes them at most once per
    (domain, workload) instead of once per cell, and their values are
    deterministic, keeping the matrix byte-identical at any [jobs]. *)

type measurement = {
  workload : string;
  variant : string;
  dyn_sext32 : int64;
  dyn_zext32 : int64;
  static_remaining : int;
  static_remaining_zext : int;
  cycles : int64;
  executed : int64;
  equivalent : bool;  (** observably equal to the canonical reference *)
  stats : Sxe_core.Stats.t;
}

let default_variants ?arch ?maxlen () : Sxe_core.Config.t list =
  Sxe_core.Config.measured ?arch ?maxlen ()

let fuel = 4_000_000_000L

(* ------------------------------------------------------------------ *)
(* Per-domain caches of per-workload artifacts                          *)
(* ------------------------------------------------------------------ *)

(* Keyed by the workload's source text (scale is baked into it), so a
   cached entry is valid for any Registry.t handing out that source.
   Everything cached here is deterministic in the key. *)

let base_cache : (string, Sxe_ir.Prog.t) Sxe_par.Dcache.t = Sxe_par.Dcache.create ()
let reference_cache : (string, Sxe_vm.Interp.outcome) Sxe_par.Dcache.t =
  Sxe_par.Dcache.create ()

let profile_cache :
    (string * string, string -> src:int -> dst:int -> float option) Sxe_par.Dcache.t =
  Sxe_par.Dcache.create ()

(** The freshly-lowered, frozen base program for [w] — immutable from
    here on; cells clone it instead of re-running the frontend. *)
let base_of (w : Sxe_workloads.Registry.t) : Sxe_ir.Prog.t =
  Sxe_par.Dcache.find base_cache w.source (fun () ->
      let p = Sxe_lang.Frontend.compile w.source in
      Sxe_ir.Clone.freeze_prog p;
      p)

(** Canonical outcome for the equivalence bit, computed on a clone (the
    base stays unmutated — interpreter runs warm per-function caches). *)
let reference_of (w : Sxe_workloads.Registry.t) : Sxe_vm.Interp.outcome =
  Sxe_par.Dcache.find reference_cache w.source (fun () ->
      Sxe_vm.Interp.run ~mode:`Canonical ~fuel ~count_cycles:false
        (Sxe_ir.Clone.clone_prog (base_of w)))

let arch_name = function
  | None -> "<default>"
  | Some (a : Sxe_core.Arch.t) -> a.Sxe_core.Arch.name

(** Branch profile from a baseline-compiled run. *)
let profile_of ?arch (w : Sxe_workloads.Registry.t) =
  Sxe_par.Dcache.find profile_cache (w.source, arch_name arch) (fun () ->
      let prog = Sxe_ir.Clone.clone_prog (base_of w) in
      let _ = Sxe_core.Pass.compile (Sxe_core.Config.baseline ?arch ()) prog in
      let profile = Sxe_vm.Profile.create () in
      let _ = Sxe_vm.Interp.run ~mode:`Faithful ~fuel ~count_cycles:false ~profile prog in
      Sxe_vm.Profile.as_source profile)

let collect_profile (w : Sxe_workloads.Registry.t) ?arch () = profile_of ?arch w

(** Run one workload under one variant on a clone of the frozen base.
    [profile] feeds order determination; [reference] is the canonical
    outcome for the equivalence bit. *)
let run_one ?profile ~(reference : Sxe_vm.Interp.outcome) (config : Sxe_core.Config.t)
    (w : Sxe_workloads.Registry.t) : measurement =
  let prog = Sxe_ir.Clone.clone_prog (base_of w) in
  let stats = Sxe_core.Pass.compile ?profile config prog in
  Sxe_ir.Validate.check_prog prog;
  let out = Sxe_vm.Interp.run ~mode:`Faithful ~fuel prog in
  {
    workload = w.name;
    variant = config.Sxe_core.Config.name;
    dyn_sext32 = out.Sxe_vm.Interp.sext32;
    dyn_zext32 = out.Sxe_vm.Interp.zext32;
    static_remaining = stats.Sxe_core.Stats.remaining;
    static_remaining_zext = stats.Sxe_core.Stats.remaining_zext;
    cycles = out.Sxe_vm.Interp.cycles;
    executed = out.Sxe_vm.Interp.executed;
    equivalent = Sxe_vm.Interp.equivalent reference out;
    stats;
  }

(* One (workload, variant) cell. [base], when given, is the frozen base
   program built once on the calling domain: seeding this domain's cache
   with it makes every domain clone the {e same} immutable structure
   instead of re-running the frontend per domain. The derived artifacts
   (reference outcome, branch profile) stay per-domain-memoized. *)
let run_cell ~use_profile ?arch ?base (config : Sxe_core.Config.t)
    (w : Sxe_workloads.Registry.t) : measurement =
  (match base with
  | Some b -> ignore (Sxe_par.Dcache.find base_cache w.source (fun () -> b))
  | None -> ());
  let reference = reference_of w in
  let profile = if use_profile then Some (profile_of ?arch w) else None in
  run_one ?profile ~reference config w

(** Full variant matrix for one workload. *)
let run_workload ?(use_profile = true) ?arch ?maxlen (w : Sxe_workloads.Registry.t) :
    measurement list =
  List.map
    (fun config -> run_cell ~use_profile ?arch config w)
    (default_variants ?arch ?maxlen ())

(** The whole matrix for a suite: [(workload, measurements per variant)].
    Work is scheduled as (workload x variant) cells, chunked by the pool,
    so uneven workloads spread over domains instead of serializing behind
    the largest one. Base programs are frozen before fan-out; reference
    outcomes and branch profiles are per-domain-cached. The matrix comes
    back in registry order regardless of [jobs]. *)
let run_suite ?(scale = 1) ?(use_profile = true) ?arch ?(jobs = 1) ?chunk ?stats
    (suite : Sxe_workloads.Registry.suite) =
  let ws =
    List.filter
      (fun (w : Sxe_workloads.Registry.t) -> w.suite = suite)
      (Sxe_workloads.Registry.all ~scale ())
  in
  (* Build and freeze every base on the calling domain before fanning
     out: workers then clone shared immutable programs without racing on
     the body-append flush (and without each re-running the frontend). *)
  let bases = List.map (fun w -> (w, base_of w)) ws in
  let variants = default_variants ?arch () in
  let nv = List.length variants in
  let cells =
    List.concat_map (fun (w, b) -> List.map (fun c -> (w, b, c)) variants) bases
  in
  let ms =
    Sxe_par.Pool.with_pool ?chunk ~jobs (fun pool ->
        let ms =
          Sxe_par.Pool.map pool
            (fun (w, base, config) -> run_cell ~use_profile ?arch ~base config w)
            cells
        in
        (match stats with Some cb -> cb (Sxe_par.Pool.stats pool) | None -> ());
        ms)
  in
  (* regroup the flat cell list, [nv] consecutive cells per workload *)
  let rec group ws ms =
    match ws with
    | [] ->
        assert (ms = []);
        []
    | (w : Sxe_workloads.Registry.t) :: ws ->
        let rec split k acc rest =
          if k = 0 then (List.rev acc, rest)
          else
            match rest with
            | m :: rest -> split (k - 1) (m :: acc) rest
            | [] -> assert false
        in
        let mine, rest = split nv [] ms in
        (w.name, mine) :: group ws rest
  in
  group ws ms

(* ------------------------------------------------------------------ *)
(* Table 3: compile-time breakdown                                     *)
(* ------------------------------------------------------------------ *)

type breakdown = {
  bench : string;
  signext_pct : float;  (** sign extension optimizations (all) *)
  chains_pct : float;  (** UD/DU chain (and range) creation *)
  others_pct : float;
}

(** Measure the compile-time split for one workload by compiling it
    repeatedly under the full configuration. *)
let compile_time_breakdown ?(repeat = 5) ?arch (w : Sxe_workloads.Registry.t) : breakdown =
  let total = Sxe_core.Stats.create () in
  for _ = 1 to repeat do
    let prog = Sxe_ir.Clone.clone_prog (base_of w) in
    let stats = Sxe_core.Pass.compile (Sxe_core.Config.new_all ?arch ()) prog in
    Sxe_core.Stats.add ~into:total stats
  done;
  let t = Sxe_core.Stats.total_time total in
  let pct x = if t > 0.0 then 100.0 *. x /. t else 0.0 in
  {
    bench = w.name;
    signext_pct = pct total.Sxe_core.Stats.time_signext;
    chains_pct = pct total.Sxe_core.Stats.time_chains;
    others_pct =
      pct (total.Sxe_core.Stats.time_convert +. total.Sxe_core.Stats.time_general);
  }
