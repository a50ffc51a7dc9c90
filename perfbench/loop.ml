(* Closed-loop accounting for a timed request region.

   The region is [t0, deadline] on the monotonic clock. Each connection
   keeps exactly one request in flight; when the deadline passes no new
   request is sent and the ones still in flight are drained. The
   bookkeeping rules:

   - every request sent is attempted;
   - a verified reply received by the deadline counts towards
     throughput;
   - a verified reply drained after the deadline is a latency sample
     but not throughput (it was not finished inside the region);
   - a failed reply (refused, wrong, unparseable) counts as failed and
     enters the latency samples as +infinity: it missed every latency
     limit.

   So at any time [attempted = in_window + late + failed + in_flight],
   and after the drain [in_flight = 0]. *)

type t = {
  t0 : int64;
  deadline : int64;
  mutable sent : int;
  mutable in_window : int;
  mutable late : int;
  mutable failed : int;
  mutable lat : float array;  (** latency samples in ms, first [nlat] valid *)
  mutable nlat : int;
}

let create ~t0 ~deadline =
  if Int64.compare deadline t0 <= 0 then invalid_arg "Loop.create: empty region";
  {
    t0;
    deadline;
    sent = 0;
    in_window = 0;
    late = 0;
    failed = 0;
    lat = Array.make 1024 0.0;
    nlat = 0;
  }

let push_lat t ms =
  if t.nlat = Array.length t.lat then begin
    let a = Array.make (2 * t.nlat) 0.0 in
    Array.blit t.lat 0 a 0 t.nlat;
    t.lat <- a
  end;
  t.lat.(t.nlat) <- ms;
  t.nlat <- t.nlat + 1

let sent t = t.sent <- t.sent + 1

let reply t ~sent_at ~now ~ok =
  if ok then begin
    push_lat t (Int64.to_float (Int64.sub now sent_at) /. 1e6);
    if Int64.compare now t.deadline <= 0 then t.in_window <- t.in_window + 1
    else t.late <- t.late + 1
  end
  else begin
    push_lat t infinity;
    t.failed <- t.failed + 1
  end

let attempted t = t.sent
let failed t = t.failed
let in_window t = t.in_window
let late t = t.late
let in_flight t = t.sent - t.in_window - t.late - t.failed
let latencies t = Array.sub t.lat 0 t.nlat
let window_s t = Int64.to_float (Int64.sub t.deadline t.t0) /. 1e9

(* Verified replies per second over the whole region. *)
let throughput t = float t.in_window /. window_s t
