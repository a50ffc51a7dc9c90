(* Host-speed calibration.

   The machines this benchmark runs on share their cores with other
   tenants, and their speed drifts by up to 1.5x within a minute, each
   core on its own (a fixed compile pass over the 24 sources measured
   0.26-0.49 s on one 2-core host within 100 s). No in-run averaging
   removes a drift that slow. So every timed measurement is bracketed
   by runs of a fixed CPU kernel on the same core (the runner pins the
   benchmark, the daemon and the kernel to one CPU), and the gated time
   metrics are rescaled to a reference host speed:

     normalized = raw * ref_s / kernel_s

   where [kernel_s] is the mean of the kernel timings just before and
   just after the measurement and [ref_s] is the kernel's time on the
   reference host (2-core x86-64 VM) in its fast state, so that there,
   in that state, normalized = raw. The kernel (allocation, hashing,
   sorting, string building: the compiler's mix) lives here and never
   changes with the code under test, and it runs in a fresh child
   process, so neither the benchmark's heap nor the library's GC
   settings can shift it. Measured on that host, alternating compile
   passes with the kernel: the ratio's interquartile spread was 8%
   where the raw pass time's was 18%; with the kernel on the other
   core it was 24%, no better than raw. *)

let ref_s = 0.025

let kernel () =
  let t0 = Sxe_util.Monoclock.now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919 mod 50021) (string_of_int i)
  done;
  let l = List.init 25_000 (fun i -> i * 31 mod 1000) in
  ignore (List.length (List.sort compare l));
  let a = Array.init 25_000 (fun i -> float (i * 17 mod 977)) in
  Array.sort compare a;
  let b = Buffer.create 16 in
  for i = 0 to 12_000 do
    Buffer.add_string b (string_of_int i)
  done;
  ignore (Sys.opaque_identity (h, a, b));
  Sxe_util.Monoclock.elapsed_s t0

(* The child's side: five kernel runs, print the median (a transient
   stall inside one run does not count). *)
let child () =
  let ts = Array.init 5 (fun _ -> kernel ()) in
  Printf.printf "%.9f\n" (Quant.median ts)

(* Run [exe flag] in a fresh child process and return the time in
   seconds it prints as its only line. *)
let child_time ~exe flag =
  let ic = Unix.open_process_args_in exe [| exe; flag |] in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match float_of_string_opt (String.trim line) with
      | Some s when s > 0.0 -> s
      | _ -> failwith (Printf.sprintf "%s child printed %s" flag (String.escaped line)))
  | _ -> failwith (flag ^ " child failed")

(* The kernel's median time, from a fresh child ([exe --calibrate]). *)
let measure ~exe = child_time ~exe "--calibrate"

(* A chain of measurements with a calibration before the first, between
   each two and after the last. *)
type chain = { exe : string; mutable last : float }

let start ~exe = { exe; last = measure ~exe }

(* Run [f] as the next measurement of the chain; returns its result and
   the factor that rescales times measured inside it to the reference
   speed, from the kernel timings just before and just after. *)
let timed ch f =
  let v = f () in
  let after = measure ~exe:ch.exe in
  let factor = ref_s /. ((ch.last +. after) /. 2.0) in
  ch.last <- after;
  (v, factor)
