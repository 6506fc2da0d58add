let min_tail = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* samples strictly beyond the nearest-rank [p]-th percentile, counted
   on the tail side: above it for p > 50, below it for p < 50 *)
let beyond ~n p = if p > 50 then n * (100 - p) / 100 else n * p / 100

let percentile xs p =
  if p <= 0 || p >= 100 || p = 50 then
    invalid_arg "Stats.percentile: p must be in (0, 100), not 50";
  let n = Array.length xs in
  let k = beyond ~n p in
  if k < min_tail then None
  else
    let a = sorted xs in
    Some (if p > 50 then a.(n - k - 1) else a.(k))

let tail xs =
  let n = Array.length xs in
  let rec go p =
    if p <= 50 then None
    else if beyond ~n p >= min_tail then
      Option.map (fun v -> (p, v)) (percentile xs p)
    else go (p - 1)
  in
  go 99
