(* The serve workloads: request streams, reply verification and the
   single-threaded closed-loop client.

   Requests cycle over the 24 registry sources ([Registry.all] +
   [extras]) in a seeded order, variant [all], [emit: true]. Cold
   bodies carry a seeded unique trailing comment, so every one misses
   the daemon's content-hash cache; warm bodies are verbatim.

   Verification: the in-process [Compile_one.run_source] outcome of
   each base source is computed outside the timed region. The first
   reply for a base is parsed and compared field by field with it (ok,
   certified, every static count, the assembly); its payload then
   becomes the base's template, and later replies must carry the same
   payload byte for byte (a trailing comment changes neither the
   verdict nor the code). A reply that differs from the template is
   parsed and compared again before it is declared failed. *)

module Json = Sxe_serve.Json
module Compile_one = Sxe_serve.Compile_one
module Monoclock = Sxe_util.Monoclock

type base = {
  name : string;
  source : string;
  expected : Compile_one.outcome;
  req_prefix : string;  (** request line up to the end of the escaped source *)
  mutable template : string option;  (** verified reply payload *)
}

let maxlen = Sxe_ir.Types.max_array_length
let config () = Compile_one.config_of ~arch:Sxe_core.Arch.ia64 ~maxlen `All

let sources () =
  List.map
    (fun (w : Sxe_workloads.Registry.t) -> (w.name, w.source))
    (Sxe_workloads.Registry.all () @ Sxe_workloads.Registry.extras ())

(* In-process ground truth for every base (outside any timed region). *)
let bases () : base array =
  let config = config () in
  sources ()
  |> List.map (fun (name, source) ->
         match Compile_one.run_source ~emit:true ~config ~maxlen source with
         | Ok expected ->
             {
               name;
               source;
               expected;
               req_prefix =
                 "{\"op\":\"compile\",\"variant\":\"all\",\"emit\":true,\"source\":\""
                 ^ Json.escape source;
               template = None;
             }
         | Error msg -> failwith (Printf.sprintf "%s: frontend error: %s" name msg))
  |> Array.of_list

let request_line b ~suffix = b.req_prefix ^ Json.escape suffix ^ "\"}\n"

(* The seeded request stream: every cycle of [n] requests visits each
   base once, in a fresh seeded permutation per cycle, so which requests
   meet in the daemon's queue varies along a run instead of repeating
   one pattern; cold requests also get a unique suffix each. *)
type stream = {
  st : Random.State.t;
  n : int;
  mutable perms : int array array;  (** drawn cycles, first [drawn] valid *)
  mutable drawn : int;
  salt : string;
  cold : bool;
}

let stream ~seed ~cold n =
  let st = Random.State.make [| seed; 0x5e12e |] in
  let salt = Printf.sprintf "%08x%08x" (Random.State.bits st) (Random.State.bits st) in
  { st; n; perms = Array.make 64 [||]; drawn = 0; salt; cold }

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Base of the [k]-th request; cycles are drawn in order, so the stream
   depends on the seed alone. *)
let base_of_request s k =
  let c = k / s.n in
  while s.drawn <= c do
    if s.drawn = Array.length s.perms then
      s.perms <- Array.append s.perms (Array.make s.drawn [||]);
    s.perms.(s.drawn) <- permutation s.st s.n;
    s.drawn <- s.drawn + 1
  done;
  s.perms.(c).(k mod s.n)

let suffix s k =
  if s.cold then Printf.sprintf "\n// perfbench cold %s %d\n" s.salt k else ""

(* Split a reply line into its [cached] flag and the payload after it. *)
let split_reply line =
  let t = "{\"cached\":true," and f = "{\"cached\":false," in
  let has p = String.length line >= String.length p && String.sub line 0 (String.length p) = p in
  let rest p = String.sub line (String.length p) (String.length line - String.length p) in
  if has t then Some (true, rest t) else if has f then Some (false, rest f) else None

(* Field-by-field comparison of a reply with the in-process outcome. *)
let verify_full b line =
  match Json.parse line with
  | exception Json.Parse_error _ -> false
  | j ->
      let e = b.expected in
      (* the reply's counts, under {!Compose.counts}' names *)
      let got =
        match Json.member "stats" j with
        | None -> []
        | Some st ->
            let int = function Json.Int v -> Some (Int64.to_int v) | _ -> None in
            let theorems =
              match Json.member "theorems" st with
              | Some (Json.Arr l) -> List.mapi (fun i v -> (Printf.sprintf "t%d" (i + 1), int v)) l
              | _ -> []
            in
            List.filter_map
              (fun (k, _) ->
                match Json.member k st with Some v -> Some (k, int v) | None -> None)
              (Compose.counts e.Compile_one.stats)
            @ theorems
      in
      let want = List.map (fun (k, v) -> (k, Some v)) (Compose.counts e.Compile_one.stats) in
      Json.bool "ok" j = Some true
      && Json.bool "certified" j = Some true
      && e.Compile_one.errors = []
      && List.sort compare got = List.sort compare want
      && Json.str "asm" j = e.Compile_one.asm

(* Verify one reply for base [b]; [cached], when given, is the cache
   outcome the workload promises (cold: always a miss, warm: always a
   hit). *)
let verify b ?cached line =
  match split_reply line with
  | None -> false
  | Some (c, payload) when cached = None || cached = Some c -> (
      match b.template with
      | Some t when String.equal t payload -> true
      | _ ->
          let ok = verify_full b line in
          if ok && b.template = None then b.template <- Some payload;
          ok)
  | Some _ -> false

(* ------------------------------------------------------------------ *)
(* Closed-loop client: one thread, [conns] sockets, one request in      *)
(* flight per socket                                                   *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable inflight : (int * int64) option;  (** request index, send time *)
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; rbuf = Buffer.create 65536; inflight = None }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Next complete line buffered on [c], if any. *)
let take_line c =
  let s = Buffer.contents c.rbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let open_conns ~sock n = Array.init n (fun _ -> connect sock)
let close_conns cs = Array.iter (fun c -> Unix.close c.fd) cs

type result = { loop : Loop.t; drained : bool }

(* How long in-flight requests may take to drain after the deadline
   before they count as failed. *)
let drain_s = 60.0

(* Drive the stream [s] on the connections [cs] until [seconds] have
   passed, then drain what is in flight (at most [drain_s]). [next] is
   the stream position, carried over between calls. *)
let run ~cs ~next ~seconds ?cached (bases : base array) s =
  let t0 = Monoclock.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let give_up = Int64.add deadline (Int64.of_float (drain_s *. 1e9)) in
  let loop = Loop.create ~t0 ~deadline in
  let send c =
    let k = !next in
    incr next;
    let line = request_line bases.(base_of_request s k) ~suffix:(suffix s k) in
    Loop.sent loop;
    c.inflight <- Some (k, Monoclock.now_ns ());
    write_all c.fd line
  in
  (* [now]: when the read that completed [line] returned, so that the
     latency sample excludes verification *)
  let finish c ~now line =
    match c.inflight with
    | None -> ()
    | Some (k, sent_at) ->
        c.inflight <- None;
        let b = bases.(base_of_request s k) in
        Loop.reply loop ~sent_at ~now ~ok:(verify b ?cached line);
        if Int64.compare (Monoclock.now_ns ()) deadline < 0 then send c
  in
  let fail c ~now =
    match c.inflight with
    | Some (_, sent_at) ->
        c.inflight <- None;
        Loop.reply loop ~sent_at ~now ~ok:false
    | None -> ()
  in
  Array.iter send cs;
  let drained = ref true in
  let rec go () =
    let busy = Array.to_list cs |> List.filter (fun c -> c.inflight <> None) in
    if busy <> [] then begin
      let now = Monoclock.now_ns () in
      if Int64.compare now give_up >= 0 then begin
        (* a request still unanswered after the drain window failed *)
        drained := false;
        List.iter (fail ~now) busy
      end
      else begin
        let until = if Int64.compare now deadline < 0 then deadline else give_up in
        let timeout = Int64.to_float (Int64.sub until now) /. 1e9 in
        let ready =
          match Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout with
          | r, _, _ -> List.filter (fun c -> List.mem c.fd r) busy
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        (* read every ready connection, noting the time, before any
           reply is verified *)
        let reads =
          List.map
            (fun c ->
              let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
              if n > 0 then Buffer.add_subbytes c.rbuf chunk 0 n;
              (c, n, Monoclock.now_ns ()))
            ready
        in
        List.iter
          (fun (c, n, now) ->
            if n = 0 then (* the daemon closed the connection *) fail c ~now
            else
              let rec lines () =
                match take_line c with
                | Some l ->
                    finish c ~now l;
                    lines ()
                | None -> ()
              in
              lines ())
          reads;
        go ()
      end
    end
  in
  go ();
  { loop; drained = !drained }

(* One pass over the bases on a single connection, each reply verified
   (cache priming for the warm workload, template check for the cold
   one). Returns the number of failed replies. *)
let prime ~sock (bases : base array) s =
  let c = Sxe_serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Sxe_serve.Client.close c) (fun () ->
      let failed = ref 0 in
      Array.iteri
        (fun i b ->
          let suffix = if s.cold then Printf.sprintf "\n// perfbench prime %s %d\n" s.salt i else "" in
          let line = request_line b ~suffix in
          let reply = Sxe_serve.Client.request c (String.sub line 0 (String.length line - 1)) in
          if not (verify b ~cached:false reply) then incr failed)
        bases;
      !failed)
