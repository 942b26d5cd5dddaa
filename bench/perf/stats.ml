(* Order statistics, computed the way Python's [statistics] module does
   (median; quantiles with method "exclusive"), so spreads reported
   here match a check written against that module. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [quantile_sorted a p]: exclusive-method quantile of a sorted array,
   position p * (n + 1), clamped to the inner pair like Python's
   [statistics.quantiles]. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (truncate h)) in
    let delta = h -. float_of_int j in
    a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))

let quartiles xs =
  let a = sorted xs in
  (quantile_sorted a 0.25, quantile_sorted a 0.75)

(* [percentile_sorted a p]: linear between the closest ranks (method
   "inclusive"), which never reads past the extremes — the few jobs of a
   compute pass would otherwise extrapolate a p90 beyond the slowest. *)
let percentile_sorted a p =
  match Array.length a with
  | 0 -> nan
  | 1 -> a.(0)
  | n ->
      let h = p *. float_of_int (n - 1) in
      let j = min (n - 2) (truncate h) in
      a.(j) +. ((h -. float_of_int j) *. (a.(j + 1) -. a.(j)))
