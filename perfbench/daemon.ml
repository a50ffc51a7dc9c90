(* A `sxopt serve` child process: spawn, wait until it answers a ping,
   query it, shut it down and reap it. Every daemon this module starts
   is either reaped by {!stop} or killed and reaped at exit. *)

type t = { pid : int; sock : string; mutable live : bool }

let live : t list ref = ref []

let reap_blocking pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill d =
  if d.live then begin
    d.live <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap_blocking d.pid;
    try Sys.remove d.sock with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter kill !live)

(* One blocking request/response on a fresh connection. *)
let request d line =
  let c = Sxe_serve.Client.connect d.sock in
  Fun.protect ~finally:(fun () -> Sxe_serve.Client.close c) (fun () ->
      Sxe_serve.Client.request c line)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Response-cache capacity. The cold workload never hits, and with the
   default 4096 entries its cache would grow all run long: a larger live
   heap makes every later compile pay more GC work, so throughput fell
   10-20% from the first to the last segment of a run, and by more the
   faster the host ran. A small FIFO keeps the heap the same size from
   the first seconds on; the warm workload uses 24 entries. *)
let cache_max = 64

(* How long {!start} waits for the first pong, and {!stop} for the
   daemon to exit after a shutdown request. *)
let timeout_s = 30.0

(* Interval between pings while the daemon starts. A cold start takes
   a few milliseconds, so a coarser interval would make up most of the
   measured set-up time (2 ms made serve-cold [setup_s] vary by a
   third between runs); a failed connect costs microseconds. *)
let start_poll_s = 0.0002

(* Start the daemon and block until it answers a ping; raises
   [Failure] if it exits or stays silent for [timeout_s]. *)
let start ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; sock; "--jobs"; "1"; "--cache-max"; string_of_int cache_max |]
          null err err)
  in
  let d = { pid; sock; live = true } in
  live := d :: !live;
  let t0 = Sxe_util.Monoclock.now_ns () in
  let rec wait () =
    if exited pid then begin
      d.live <- false;
      failwith (Printf.sprintf "sxopt serve exited during start-up (see %s)" log)
    end;
    if Sxe_util.Monoclock.elapsed_s t0 > timeout_s then begin
      kill d;
      failwith "sxopt serve did not answer a ping"
    end;
    match request d "{\"op\":\"ping\"}" with
    | r when Sxe_serve.Json.(bool "pong" (parse r)) = Some true -> ()
    | _ -> failwith "sxopt serve answered a ping without pong"
    | exception (Unix.Unix_error _ | End_of_file) ->
        Unix.sleepf start_poll_s;
        wait ()
  in
  wait ();
  d

(* The daemon's peak resident set ([VmHWM]) in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let peak_rss_mb d = vm_hwm_mb (string_of_int d.pid)
let self_peak_rss_mb () = vm_hwm_mb "self"

let metrics d = Sxe_serve.Json.parse (request d "{\"op\":\"metrics\"}")

(* Graceful drain: ask for shutdown, then reap; a daemon that does not
   exit within [timeout_s] is killed. *)
let stop d =
  if d.live then begin
    (try ignore (request d "{\"op\":\"shutdown\"}")
     with Unix.Unix_error _ | End_of_file -> ());
    let t0 = Sxe_util.Monoclock.now_ns () in
    let rec wait () =
      if exited d.pid then d.live <- false
      else if Sxe_util.Monoclock.elapsed_s t0 > timeout_s then kill d
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    wait ();
    live := List.filter (fun x -> x != d) !live;
    try Sys.remove d.sock with Sys_error _ -> ()
  end
