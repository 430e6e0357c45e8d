(* The one percentile rule every reported figure uses: nearest rank.
   The p-th percentile of n samples is the smallest sample with at
   least p% of the samples at or below it, i.e. the sample of rank
   ceil(p * n / 100) in ascending order.  No interpolation, so every
   reported percentile is a value that was actually measured. *)

(* [p *. n /. 100.] rather than [p /. 100. *. n]: 99 * 1000 / 100 is
   exactly 990, while 0.99 * 1000 is not, and ceil would round it up. *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n /. 100.))))

let percentile ~p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then None else Some a.(rank ~p n - 1)

(* Samples strictly beyond the p-th percentile's rank: the number of
   measurements the percentile summarises the tail of.  A p99 needs
   n >= 1000 for this to reach 10. *)
let beyond ~p n = if n = 0 then 0 else n - rank ~p n

let median xs = percentile ~p:50. xs

let get = function Some x -> x | None -> nan

(* Split [xs] (in schedule order) into [windows] consecutive windows of
   equal size, the remainder joining the last, and take each window's
   percentile. *)
let window_percentiles ~p ~windows xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let w = max 1 (min windows n) in
  let size = n / w in
  if n = 0 then []
  else
    List.init w (fun k ->
        let len = if k = w - 1 then n - (k * size) else size in
        get (percentile ~p (Array.to_list (Array.sub a (k * size) len))))

(* A percentile that one burst cannot swing: the median of the windows'
   percentiles. *)
let windowed ~p ~windows xs = median (window_percentiles ~p ~windows xs)

(* The percentile of the least disturbed window: the lowest of the
   windows' percentiles.  Interference from the rest of a shared host
   only ever adds time, so the lowest window is the one closest to what
   the program itself costs. *)
let lowest_window ~p ~windows xs =
  match window_percentiles ~p ~windows xs with
  | [] -> None
  | l -> Some (List.fold_left Float.min infinity l)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
