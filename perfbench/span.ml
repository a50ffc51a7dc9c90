(* In-memory span recorder for the traced pass.

   A span is (name, start, end, parent, request id) on the monotonic
   clock. Spans are appended to growable arrays while they run and only
   written out at the end ({!write_chrome}), so recording costs two
   clock reads and a few stores per span. Nesting follows the dynamic
   call structure: the parent of a span is the span open when it
   started. *)

type span = {
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  req : int;  (** request / cell id the span belongs to, -1 if none *)
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int;  (** innermost open span, -1 if none *)
  mutable req : int;
}

let dummy = { name = ""; start_ns = 0L; stop_ns = 0L; parent = -1; req = -1 }
let create () = { spans = Array.make 4096 dummy; n = 0; open_ = -1; req = -1 }
let set_request t id = t.req <- id

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

(* Run [f] inside a span called [name]. The slot is reserved when the
   span opens so that children (which close first) can name it as
   their parent. *)
let with_span t name f =
  let idx = t.n in
  let parent = t.open_ in
  let start_ns = Sxe_util.Monoclock.now_ns () in
  push t { dummy with name; start_ns; parent; req = t.req };
  t.open_ <- idx;
  let close () =
    t.spans.(idx) <- { (t.spans.(idx)) with stop_ns = Sxe_util.Monoclock.now_ns () };
    t.open_ <- parent
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans t = Array.sub t.spans 0 t.n
let dur (s : span) = Int64.sub s.stop_ns s.start_ns

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi (ivs : (int64 * int64) list) =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> Int64.add acc (Int64.sub b a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then go acc (Some (ca, max cb b)) rest
            else go (Int64.add acc (Int64.sub cb ca)) (Some (a, b)) rest)
  in
  go 0L None ivs

(* Self time of every span: its duration minus the part of it covered
   by its children's intervals. *)
let self_times (ss : span array) : int64 array =
  let kids = Array.make (Array.length ss) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- (ss.(i).start_ns, ss.(i).stop_ns) :: kids.(s.parent))
    ss;
  Array.mapi
    (fun i s -> Int64.sub (dur s) (covered ~lo:s.start_ns ~hi:s.stop_ns kids.(i)))
    ss

type agg = { count : int; total_s : float; self_s : float }

(* Per-name totals: inclusive and self seconds, and the number of
   spans. *)
let aggregate (ss : span array) : (string, agg) Hashtbl.t =
  let self = self_times ss in
  let h = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let a =
        Option.value (Hashtbl.find_opt h s.name) ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace h s.name
        {
          count = a.count + 1;
          total_s = a.total_s +. (Int64.to_float (dur s) /. 1e9);
          self_s = a.self_s +. (Int64.to_float self.(i) /. 1e9);
        })
    ss;
  h

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   process id per recorder. *)
let write_chrome oc (groups : (int * span array) list) =
  let t0 =
    List.fold_left
      (fun acc (_, ss) -> if Array.length ss = 0 then acc else min acc ss.(0).start_ns)
      Int64.max_int groups
  in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun (pid, ss) ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
            (if !first then "" else ",")
            (Sxe_serve.Json.escape s.name) pid
            (Int64.to_float (Int64.sub s.start_ns t0) /. 1e3)
            (Int64.to_float (dur s) /. 1e3)
            i s.parent s.req;
          first := false)
        ss)
    groups;
  output_string oc "\n]}\n"
