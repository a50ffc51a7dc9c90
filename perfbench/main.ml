(* perfbench: the repository benchmark. See README.md in this directory.

   main.exe --workload serve-cold|serve-warm|matrix|all --seed N
            --seconds S --trace 0|1 --sxopt PATH [--commit SHA]

   Runs from the root of a source checkout. Prints a human-readable
   report, then one JSON report line, then (last) the result line
   {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench
module Json = Sxe_serve.Json
module Monoclock = Sxe_util.Monoclock

let run_dir = "perfbench/_run"
let setup_reps = 5
let matrix_setup_reps = 3

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** gated: name, value, unit *)
  report : (string * string) list;  (** extra report fields, JSON values *)
}

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* Digest of the program's sources (lib/ and bin/), identifying the
   code measured even where the checkout carries no git metadata. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.concat_map (fun n ->
               let p = Filename.concat dir n in
               if Sys.is_directory p then walk p else [ p ])
  in
  let files = walk "lib" @ walk "bin" in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) files)))

(* CPUs the host has online (not this process's affinity mask, which
   the runner narrows to one CPU). *)
let online_cpus () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
         done
       with End_of_file -> ());
      close_in ic;
      max 1 !n

let env_json ~workload ~seed ~seconds ~commit ~pinned ~conns =
  Printf.sprintf
    "{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%g,\"nproc\":%d,\"pinned_cpu\":\"%s\",\
     \"ocaml\":\"%s\",\"commit\":\"%s\",\"source_digest\":\"%s\",\"daemon_jobs\":1,\"daemon_cache_max\":%d,\
     \"connections\":%d,\"matrix_scale\":%d,\"matrix_jobs\":%d,\"calib_ref_s\":%g}"
    (Json.escape workload) seed seconds (online_cpus ()) (Json.escape pinned)
    (Json.escape Sys.ocaml_version) (Json.escape commit) (source_digest ()) Daemon.cache_max conns
    Matrix.scale Matrix.jobs Calib.ref_s

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then
    (* shortest decimal that reads back as exactly [v] *)
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  else "null"

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v, u) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (num v) u)
         ms)
  ^ "}"

let result_line r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" r.correct
    r.attempted r.failed (metrics_json r.metrics)

let print_result ~env r =
  Printf.printf "== %s ==\n" r.workload;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14s %s\n" n (num v) u) r.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.report;
  Printf.printf "  correct=%b attempted=%d failed=%d\n" r.correct r.attempted r.failed;
  Printf.printf "{\"report\":{\"env\":%s,%s}}\n" env
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) r.report));
  print_endline (result_line r)

let jstr s = "\"" ^ Json.escape s ^ "\""
let jarr xs = "[" ^ String.concat "," (List.map num xs) ^ "]"

(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

let sock_path k = Printf.sprintf "%s/sx-%d-%d.sock" run_dir (Unix.getpid ()) k
let log_path = Filename.concat run_dir "daemon.log"

(* Length of one calibrated segment of a serve timed region. *)
let segment_s = 3.0

(* Run [f 0] .. [f (reps - 1)] in order on one calibration chain;
   returns each result with its speed factor. *)
let calibrated_reps ~exe ~reps f =
  let ch = Calib.start ~exe in
  let rec go k acc = if k = reps then List.rev acc else go (k + 1) (Calib.timed ch (fun () -> f k) :: acc) in
  go 0 []

(* Median of raw and of normalized set-up times. *)
let setup_medians reps =
  ( Quant.median (Array.of_list (List.map fst reps)),
    Quant.median (Array.of_list (List.map (fun (t, f) -> t *. f) reps)) )

let serve_workload ~name ~cold ~seed ~seconds ~exe ~sxopt ~conns =
  (* ground truth for every reply, outside set-up and the timed region *)
  let bases = Serve_load.bases () in
  let s = Serve_load.stream ~seed ~cold (Array.length bases) in
  let setup_failed = ref 0 and setup_attempted = ref 0 in
  (* set-up, repeated: spawn -> first pong (+ priming the cache for the
     warm workload); the last daemon is kept for the timed region *)
  let daemon = ref None in
  let setups =
    calibrated_reps ~exe ~reps:setup_reps (fun k ->
        Option.iter Daemon.stop !daemon;
        let t0 = Monoclock.now_ns () in
        let d = Daemon.start ~exe:sxopt ~sock:(sock_path k) ~log:log_path in
        if not cold then begin
          setup_attempted := !setup_attempted + Array.length bases;
          setup_failed := !setup_failed + Serve_load.prime ~sock:d.Daemon.sock bases s
        end;
        let dt = Monoclock.elapsed_s t0 in
        daemon := Some d;
        dt)
  in
  let d = Option.get !daemon in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () ->
      if cold then begin
        (* verified reply templates for the cold stream, from unique
           bodies that the timed region never sends again *)
        setup_attempted := !setup_attempted + Array.length bases;
        setup_failed := !setup_failed + Serve_load.prime ~sock:d.Daemon.sock bases s
      end;
      let nseg = max 1 (int_of_float (Float.round (seconds /. segment_s))) in
      let seg = seconds /. float nseg in
      let cs = Serve_load.open_conns ~sock:d.Daemon.sock conns in
      let next = ref 0 in
      let segs =
        calibrated_reps ~exe ~reps:nseg (fun _ ->
            Serve_load.run ~cs ~next ~seconds:seg ~cached:(not cold) bases s)
      in
      Serve_load.close_conns cs;
      let rss = Daemon.peak_rss_mb d in
      let m = Daemon.metrics d in
      let loops = List.map (fun (r, _) -> r.Serve_load.loop) segs in
      let sum f = List.fold_left (fun a x -> a +. f x) 0.0 in
      let isum f = List.fold_left (fun a x -> a + f x) 0 in
      let replies = isum Loop.in_window loops in
      let raw_s = sum Loop.window_s loops in
      let norm_s = sum (fun (r, f) -> Loop.window_s r.Serve_load.loop *. f) segs in
      let raw_lat = Quant.sorted (Array.concat (List.map Loop.latencies loops)) in
      let norm_lat =
        Quant.sorted
          (Array.concat
             (List.map (fun (r, f) -> Array.map (fun x -> x *. f) (Loop.latencies r.Serve_load.loop)) segs))
      in
      let n = Array.length raw_lat in
      let p99 lat = match Quant.tail_percentile lat 99 with Some v -> num v | None -> "null" in
      let failed = !setup_failed + isum Loop.failed loops in
      let drained = List.for_all (fun (r, _) -> r.Serve_load.drained) segs in
      let sm = Option.value ~default:Json.Null (Json.member "metrics" m) in
      {
        workload = name;
        correct = failed = 0 && drained && isum Loop.in_flight loops = 0;
        attempted = !setup_attempted + isum Loop.attempted loops;
        failed;
        metrics =
          [
            ("throughput_rps", float replies /. norm_s, "1/s");
            ("latency_p50_ms", Quant.percentile norm_lat 50, "ms");
            ("peak_rss_mb", rss, "MB");
            ("setup_s", snd (setup_medians setups), "s");
          ];
        report =
          [
            ("latency_p99_ms", p99 norm_lat);
            ("raw_throughput_rps", num (float replies /. raw_s));
            ("raw_latency_p50_ms", num (Quant.percentile raw_lat 50));
            ("raw_latency_p99_ms", p99 raw_lat);
            ("raw_setup_s", num (fst (setup_medians setups)));
            ("latency_samples", string_of_int n);
            ("samples_beyond_p99", string_of_int (Quant.beyond ~n 99));
            ("replies_in_window", string_of_int replies);
            ("replies_drained_late", string_of_int (isum Loop.late loops));
            ("timed_s", num raw_s);
            ("segment_rates_rps", jarr (List.map Loop.throughput loops));
            ("segment_speed_factors", jarr (List.map snd segs));
            ("setup_reps_s", jarr (List.map fst setups));
            ("server_metrics", Json.to_string sm);
          ];
      })

(* ------------------------------------------------------------------ *)
(* Matrix workload                                                     *)
(* ------------------------------------------------------------------ *)

(* Set-up repetitions: all but the last in fresh child processes, so
   that the measuring process holds one copy of the set-up's memo
   tables, the one [run_suite] then uses. *)
let matrix_workload ~seconds ~exe =
  let setups =
    calibrated_reps ~exe ~reps:matrix_setup_reps (fun k ->
        if k < matrix_setup_reps - 1 then Calib.child_time ~exe "--matrix-setup"
        else Matrix.setup (Matrix.workloads ()))
  in
  (* passes until [seconds] of matrix time are measured, and an odd
     number of them, so the median is a measured pass; a calibration
     after every [run_suite] call *)
  let ch = Calib.start ~exe in
  let measured = ref 0.0 in
  let pass () =
    let segs = Matrix.pass (Calib.timed ch) in
    let raw = List.fold_left (fun a ((t, _), _) -> a +. t) 0.0 segs in
    let norm = List.fold_left (fun a ((t, _), f) -> a +. (t *. f)) 0.0 segs in
    measured := !measured +. raw;
    (raw, norm, List.concat_map (fun ((_, m), _) -> m) segs)
  in
  let first = pass () in
  (* the high-water mark of set-up plus one pass, what one matrix run
     holds; it grows slightly with every further pass, and the number
     of passes depends on the host's speed *)
  let rss = Daemon.self_peak_rss_mb () in
  let rec passes acc =
    if List.length acc mod 2 = 1 && !measured >= seconds then List.rev acc
    else passes (pass () :: acc)
  in
  let ps = passes [ first ] in
  let raws = List.map (fun (r, _, _) -> r) ps and norms = List.map (fun (_, n, _) -> n) ps in
  let cells = List.length ((fun (_, _, ms) -> ms) (List.hd ps)) in
  let attempted = List.fold_left (fun a (_, _, ms) -> a + List.length ms) 0 ps in
  let not_equiv =
    List.fold_left
      (fun a (_, _, ms) ->
        a + List.length (List.filter (fun (m : Sxe_harness.Experiment.measurement) -> not m.equivalent) ms))
      0 ps
  in
  let totals = List.map (fun (_, _, ms) -> Matrix.totals ms) ps in
  let dyn, cycles = List.hd totals in
  let stable = List.for_all (( = ) (dyn, cycles)) totals in
  let pass_s = Quant.median (Array.of_list norms) in
  {
    workload = "matrix";
    correct = not_equiv = 0 && stable;
    attempted;
    failed = (not_equiv + if stable then 0 else 1);
    metrics =
      [
        ("throughput_rps", float cells /. pass_s, "1/s");
        ("latency_p50_ms", pass_s *. 1e3, "ms");
        ("peak_rss_mb", rss, "MB");
        ("setup_s", snd (setup_medians setups), "s");
      ];
    report =
      [
        ("matrix_s", num pass_s);
        ("peak_rss_end_mb", num (Daemon.self_peak_rss_mb ()));
        ("raw_matrix_s", num (Quant.median (Array.of_list raws)));
        ("passes_s", jarr norms);
        ("raw_passes_s", jarr raws);
        ("raw_setup_s", num (fst (setup_medians setups)));
        ("cells_per_pass", string_of_int cells);
        ("dyn_sext32_all", Int64.to_string dyn);
        ("cycles_all", Int64.to_string cycles);
        ("counts_identical_across_passes", string_of_bool stable);
        ("seed", jstr "unused: the matrix inputs are fixed");
        ("setup_reps_s", jarr (List.map fst setups));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)
(* ------------------------------------------------------------------ *)

let traced_workload ~name ~seed ~sxopt ~conns =
  let out = Printf.sprintf "%s/trace-%s-%d.json" run_dir name seed in
  let o = Traced.run ~seed ~exe:sxopt ~sock:(sock_path 0) ~log:log_path ~conns ~out in
  {
    workload = name ^ " (traced)";
    correct = o.Traced.failed = 0;
    attempted = o.Traced.attempted;
    failed = o.Traced.failed;
    metrics = o.Traced.metrics;
    report =
      [
        ("trace_file", jstr out);
        ("failures", "[" ^ String.concat "," (List.map jstr o.Traced.notes) ^ "]");
        ("layers", o.Traced.layers);
      ];
  }

(* ------------------------------------------------------------------ *)

let workloads = [ "serve-cold"; "serve-warm"; "matrix" ]

(* [--workload all] runs the matrix first: its [peak_rss_mb] is this
   process's own high-water mark, which must not include the serve
   client's ground truth and buffers. *)
let all_order = [ "matrix"; "serve-cold"; "serve-warm" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-cold|serve-warm|matrix|all --seed N --seconds S \
     --trace 0|1 --sxopt PATH [--commit SHA]";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then begin
    Calib.child ();
    exit 0
  end;
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--matrix-setup" then begin
    Printf.printf "%.9f\n" (Matrix.setup (Matrix.workloads ()));
    exit 0
  end;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "" and commit = ref "unknown" and pinned = ref "none" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--sxopt" :: v :: r -> exe := v; parse r
    | "--commit" :: v :: r -> commit := v; parse r
    | "--pinned-cpu" :: v :: r -> pinned := v; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let names = if !workload = "all" then all_order else [ !workload ] in
  if (not (List.for_all (fun w -> List.mem w workloads) names))
     || !exe = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then usage ();
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns = max 1 (min 2 (online_cpus ())) in
  let results =
    List.map
      (fun name ->
        let r =
          if !trace = 1 then traced_workload ~name ~seed:!seed ~sxopt:!exe ~conns
          else
            match name with
            | "serve-cold" | "serve-warm" ->
                serve_workload ~name ~cold:(name = "serve-cold") ~seed:!seed ~seconds:!seconds
                  ~exe:Sys.executable_name ~sxopt:!exe ~conns
            | _ -> matrix_workload ~seconds:!seconds ~exe:Sys.executable_name
        in
        let env =
          env_json ~workload:name ~seed:!seed ~seconds:!seconds ~commit:!commit ~pinned:!pinned
            ~conns
        in
        print_result ~env r;
        r)
      names
  in
  if List.length results > 1 then
    (* [--workload all]: one closing line over the three runs *)
    print_endline
      (result_line
         {
           workload = "all";
           correct = List.for_all (fun r -> r.correct) results;
           attempted = List.fold_left (fun a r -> a + r.attempted) 0 results;
           failed = List.fold_left (fun a r -> a + r.failed) 0 results;
           metrics =
             List.concat_map
               (fun r -> List.map (fun (n, v, u) -> (r.workload ^ "." ^ n, v, u)) r.metrics)
               results;
           report = [];
         })
