(* Exact order statistics over raw samples.

   Quantiles use the nearest-rank definition on the sorted samples, so
   every reported quantile is a value that was actually observed —
   never a bucket boundary or an interpolation. Ranks are computed in
   integer arithmetic from a whole-number percentile, so p99 of 1000
   samples is exactly the 990th smallest, with no float rounding at the
   boundary. *)

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 0-based index of the [pct]-th percentile of [n] sorted samples
   (nearest rank: the ceil(pct * n / 100)-th smallest). *)
let rank_index ~n pct =
  if n <= 0 then invalid_arg "Quant.rank_index: no samples";
  if pct < 0 || pct > 100 then invalid_arg "Quant.rank_index: pct outside 0..100";
  max 0 (((pct * n) + 99) / 100 - 1)

let percentile (s : float array) pct = s.(rank_index ~n:(Array.length s) pct)

(* How many samples lie strictly above the [pct]-th percentile's rank. *)
let beyond ~n pct = n - 1 - rank_index ~n pct

(* A tail percentile is only reported when at least [min_beyond]
   samples lie beyond it; with fewer, "p99" would be a statement about
   one or two outliers. *)
let min_beyond = 10

let tail_percentile (s : float array) pct =
  let n = Array.length s in
  if n > 0 && beyond ~n pct >= min_beyond then Some (percentile s pct) else None

let median xs = percentile (sorted xs) 50
