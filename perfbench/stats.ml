(** Order statistics over samples, and their JSON summary. *)

module Json = Flux_server.Json

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank percentile, [p] in [0, 100] (the rule
    {!Flux_server.Metrics} uses for the daemon's own percentiles). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(** First and third quartiles by Python's
    [statistics.quantiles(xs, n=4)] (the exclusive method). *)
let quartiles xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then (nan, nan)
  else if m = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = float_of_int ((i * (m + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let summary xs : Json.t =
  let q1, q3 = quartiles xs in
  let a = sorted xs in
  let n = Array.length a in
  Json.Obj
    [
      ("median", Json.Float (median xs));
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("min", Json.Float (if n = 0 then nan else a.(0)));
      ("max", Json.Float (if n = 0 then nan else a.(n - 1)));
      ("n", Json.Int n);
    ]
