type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean = function
  | [] -> invalid_arg "Stats.mean: empty sample"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

let percentile q = function
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | xs ->
      if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0,1]";
      let sorted = List.sort Float.compare xs in
      let n = List.length sorted in
      let rank =
        Stdlib.min (n - 1)
          (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
      in
      List.nth sorted rank

let summarize_opt = function
  | [] -> None
  | xs ->
      Some
        {
          n = List.length xs;
          mean = mean xs;
          stddev = stddev xs;
          min = List.fold_left Float.min Float.infinity xs;
          max = List.fold_left Float.max Float.neg_infinity xs;
          p50 = percentile 0.5 xs;
          p90 = percentile 0.9 xs;
          p99 = percentile 0.99 xs;
        }

let summarize xs =
  match summarize_opt xs with
  | Some s -> s
  | None -> invalid_arg "Stats.summarize: empty sample"

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f" s.n
    s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max

let histogram ~buckets ~lo ~hi xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi must exceed lo";
  let counts = Array.make buckets 0 in
  let width = (hi -. lo) /. float_of_int buckets in
  List.iter
    (fun x ->
      let i =
        Stdlib.min (buckets - 1)
          (Stdlib.max 0 (int_of_float ((x -. lo) /. width)))
      in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts

let pct r = Printf.sprintf "%.1f%%" (100. *. r)

let rate outcomes =
  match outcomes with
  | [] -> 0.
  | _ ->
      float_of_int (List.length (List.filter Fun.id outcomes))
      /. float_of_int (List.length outcomes)
