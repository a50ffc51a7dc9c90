(* Unit tests of the benchmark's own accounting: exact quantiles, the
   closed-loop bookkeeping and span self-time arithmetic. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let approx a b = Float.abs (a -. b) < 1e-9

let test_quant () =
  let xs = Quant.sorted (Array.init 1000 (fun i -> float (1000 - i))) in
  (* nearest rank: p50 of 1..1000 is the 500th smallest, p99 the 990th *)
  check "p50 of 1..1000" (Quant.percentile xs 50 = 500.0);
  check "p99 of 1..1000" (Quant.percentile xs 99 = 990.0);
  check "p100 is the max" (Quant.percentile xs 100 = 1000.0);
  check "p0 is the min" (Quant.percentile xs 0 = 1.0);
  check "10 samples beyond p99 of 1000" (Quant.beyond ~n:1000 99 = 10);
  check "p99 reported at 1000 samples" (Quant.tail_percentile xs 99 = Some 990.0);
  let few = Quant.sorted (Array.init 999 float) in
  check "p99 withheld below 10 tail samples" (Quant.tail_percentile few 99 = None);
  check "odd median" (Quant.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "even median is the lower middle" (Quant.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.0);
  check "single sample" (Quant.percentile [| 7.0 |] 99 = 7.0);
  check "infinity sorts last"
    (Quant.percentile (Quant.sorted [| infinity; 1.0; 2.0 |]) 100 = infinity);
  check "rank rejects empty"
    (match Quant.rank_index ~n:0 50 with _ -> false | exception Invalid_argument _ -> true)

let test_loop () =
  let ms k = Int64.mul (Int64.of_int k) 1_000_000L in
  let l = Loop.create ~t0:0L ~deadline:(ms 1000) in
  for _ = 1 to 6 do Loop.sent l done;
  check "all in flight" (Loop.in_flight l = 6);
  Loop.reply l ~sent_at:(ms 0) ~now:(ms 100) ~ok:true;
  Loop.reply l ~sent_at:(ms 100) ~now:(ms 300) ~ok:true;
  Loop.reply l ~sent_at:(ms 300) ~now:(ms 900) ~ok:true;
  Loop.reply l ~sent_at:(ms 900) ~now:(ms 1000) ~ok:true;
  (* failed before the deadline, verified after it *)
  Loop.reply l ~sent_at:(ms 200) ~now:(ms 400) ~ok:false;
  Loop.reply l ~sent_at:(ms 950) ~now:(ms 1200) ~ok:true;
  check "attempted" (Loop.attempted l = 6);
  check "in window (deadline inclusive)" (Loop.in_window l = 4);
  check "late" (Loop.late l = 1);
  check "failed" (Loop.failed l = 1);
  check "nothing in flight" (Loop.in_flight l = 0);
  check "throughput counts in-window replies only" (approx (Loop.throughput l) 4.0);
  let lat = Quant.sorted (Loop.latencies l) in
  check "every reply is a sample" (Array.length lat = 6);
  check "a failed reply misses every limit" (lat.(5) = infinity);
  check "latencies in ms" (lat.(0) = 100.0 && lat.(4) = 600.0);
  check "empty region rejected"
    (match Loop.create ~t0:5L ~deadline:5L with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_span () =
  let mk name a b parent = { Span.name; start_ns = a; stop_ns = b; parent; req = 0 } in
  (* parent [0,100]: children [10,20] and [15,30] overlap, [50,60] is
     disjoint, [95,120] overhangs the parent's end *)
  let ss =
    [|
      mk "p" 0L 100L (-1);
      mk "a" 10L 20L 0;
      mk "b" 15L 30L 0;
      mk "c" 50L 60L 0;
      mk "d" 95L 120L 0;
      mk "e" 52L 55L 3;
    |]
  in
  let self = Span.self_times ss in
  check "parent self = 100 - (20 + 10 + 5)" (self.(0) = 65L);
  check "leaf self = duration" (self.(1) = 10L && self.(4) = 25L);
  check "grandchild only covers its parent" (self.(3) = 7L);
  check "covered of nothing" (Span.covered ~lo:0L ~hi:10L [] = 0L);
  check "covered touching intervals" (Span.covered ~lo:0L ~hi:10L [ (0L, 5L); (5L, 10L) ] = 10L);
  let h = Span.aggregate ss in
  let a = Hashtbl.find h "p" in
  check "aggregate count" (a.Span.count = 1);
  check "aggregate self" (approx a.Span.self_s 65e-9);
  (* the recorder nests by dynamic extent and tags the request *)
  let r = Span.create () in
  Span.set_request r 7;
  let v = Span.with_span r "outer" (fun () -> Span.with_span r "inner" (fun () -> 42)) in
  (try Span.with_span r "raises" (fun () -> failwith "x") with Failure _ -> ());
  let ss = Span.spans r in
  check "value passes through" (v = 42);
  check "three spans" (Array.length ss = 3);
  check "inner's parent is outer" (ss.(1).Span.parent = 0 && ss.(0).Span.parent = -1);
  check "span after an exception is top level" (ss.(2).Span.parent = -1);
  check "request id recorded" (Array.for_all (fun (s : Span.span) -> s.req = 7) ss);
  check "spans are closed" (Array.for_all (fun (s : Span.span) -> Int64.compare s.stop_ns s.start_ns >= 0) ss)

let () =
  test_quant ();
  test_loop ();
  test_span ();
  if !failures > 0 then exit 1 else print_endline "perfbench: accounting tests passed"
