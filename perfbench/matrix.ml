(* The matrix workload: [Experiment.run_suite] over Jbytemark and
   Specjvm at scale 3, jobs 1 — 17 workloads x 12 variants, each cell
   compiled, validated and run on the faithful VM. *)

module Experiment = Sxe_harness.Experiment
module Registry = Sxe_workloads.Registry
module Monoclock = Sxe_util.Monoclock

let scale = 3
let jobs = 1
let suites = [ Registry.Jbytemark; Registry.Specjvm ]
let all_variant = (Sxe_core.Config.new_all ()).Sxe_core.Config.name
let workloads () = Registry.all ~scale ()

(* The set-up [run_suite] relies on: lowering ([base_of]), canonical
   reference runs ([reference_of]) and branch profiles
   ([collect_profile]), all memoized per domain and keyed by source
   text. Only the first call in a process does the work, so repeated
   timings run it in fresh child processes ([main.exe --matrix-setup]);
   the measuring process runs it once, filling the entries [run_suite]
   then uses. *)
let setup ws =
  let t0 = Monoclock.now_ns () in
  List.iter
    (fun w ->
      ignore (Experiment.base_of w);
      ignore (Experiment.reference_of w);
      let (_ : string -> src:int -> dst:int -> float option) =
        Experiment.collect_profile w ()
      in
      ())
    ws;
  Monoclock.elapsed_s t0

(* One [run_suite] call, timed; cells in registry order. *)
let run suite =
  let t0 = Monoclock.now_ns () in
  let ms = List.concat_map snd (Experiment.run_suite ~scale ~jobs suite) in
  (Monoclock.elapsed_s t0, ms)

(* One pass: both [run_suite] calls, each run through [wrap] (a timer
   or [fun f -> f ()]), in suite order. *)
let pass wrap = List.map (fun suite -> wrap (fun () -> run suite)) suites

(* Executed 32-bit sign extensions and cost-model cycles under variant
   [all], summed over the workloads. *)
let totals (ms : Experiment.measurement list) =
  List.fold_left
    (fun (s, c) (m : Experiment.measurement) ->
      if m.variant = all_variant then (Int64.add s m.dyn_sext32, Int64.add c m.cycles)
      else (s, c))
    (0L, 0L) ms
