(* Linear-time CSR construction over unboxed int arrays, internal to the
   library. Arrays travel as (offsets, targets, weights) triples.

   Every CSR the library builds comes from here. [build] makes two
   stable counting passes over (src, dst, weight) columns: first by
   target, then by source. Visiting the by-target buckets in order during
   the second pass leaves each row sorted by target, with parallel edges
   in input order; an insertion pass then orders each equal-target run by
   weight. The result is the same rows a full (target, weight) sort
   would give, so output arrays depend only on the edge multiset. *)

(* Bucket starts of a counting sort over every array of [keys]:
   [offsets.(v)] counts the keys below [v]. *)
let offsets_of ~n keys =
  let offsets = Array.make (n + 1) 0 in
  List.iter
    (fun keys ->
      for k = 0 to Array.length keys - 1 do
        let v = keys.(k) + 1 in
        offsets.(v) <- offsets.(v) + 1
      done)
    keys;
  for v = 1 to n do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  offsets

(* One counting pass: sources are visited in order and parallel edges
   keep theirs, so rows sorted by (target, weight) transpose to rows
   sorted by (source, weight). *)
let transpose ~n ~offsets ~targets ~weights =
  let t_offsets = offsets_of ~n [ targets ] in
  let cursor = Array.sub t_offsets 0 n in
  let m = Array.length targets in
  let t_targets = Array.make m 0 and t_weights = Array.make m 0 in
  for u = 0 to n - 1 do
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      let p = cursor.(v) in
      t_targets.(p) <- u;
      t_weights.(p) <- weights.(i);
      cursor.(v) <- p + 1
    done
  done;
  (t_offsets, t_targets, t_weights)

(* Insertion sort by (target, weight): linear on a sorted row, and only
   the out-of-place entries pay more. *)
let sort_row targets weights lo hi =
  for i = lo + 1 to hi - 1 do
    let t = targets.(i) and w = weights.(i) in
    let j = ref (i - 1) in
    while !j >= lo && (targets.(!j) > t || (targets.(!j) = t && weights.(!j) > w)) do
      targets.(!j + 1) <- targets.(!j);
      weights.(!j + 1) <- weights.(!j);
      decr j
    done;
    targets.(!j + 1) <- t;
    weights.(!j + 1) <- w
  done

(* Drop self-loops and merge each equal-target run into one edge of the
   run's minimum weight, compacting the rows in place. *)
let dedup_rows ~n offsets targets weights =
  let k = ref 0 in
  for u = 0 to n - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    offsets.(u) <- !k;
    for i = lo to hi - 1 do
      let t = targets.(i) and w = weights.(i) in
      if t <> u then
        if !k > offsets.(u) && targets.(!k - 1) = t then
          weights.(!k - 1) <- min w weights.(!k - 1)
        else begin
          targets.(!k) <- t;
          weights.(!k) <- w;
          incr k
        end
    done
  done;
  offsets.(n) <- !k;
  if !k = Array.length targets then (offsets, targets, weights)
  else (offsets, Array.sub targets 0 !k, Array.sub weights 0 !k)

(* [parts] are (src, dst, weight) column triples, taken in order. *)
let build_parts ~n ~dedup parts =
  let by_dst = offsets_of ~n (List.map (fun (_, dst, _) -> dst) parts) in
  let cursor = Array.sub by_dst 0 n in
  let srcs = Array.make by_dst.(n) 0 and ws = Array.make by_dst.(n) 0 in
  List.iter
    (fun (src, dst, w) ->
      for k = 0 to Array.length dst - 1 do
        let v = dst.(k) in
        let p = cursor.(v) in
        srcs.(p) <- src.(k);
        ws.(p) <- w.(k);
        cursor.(v) <- p + 1
      done)
    parts;
  let offsets, targets, weights = transpose ~n ~offsets:by_dst ~targets:srcs ~weights:ws in
  if dedup then dedup_rows ~n offsets targets weights
  else begin
    for u = 0 to n - 1 do
      sort_row targets weights offsets.(u) offsets.(u + 1)
    done;
    (offsets, targets, weights)
  end

(* With [~dedup:true], self-loops go and parallel edges keep one copy of
   minimum weight; [symmetrize] is that over both directions. *)
let build ~n ~dedup src dst w = build_parts ~n ~dedup [ (src, dst, w) ]
let symmetrize ~n src dst w = build_parts ~n ~dedup:true [ (src, dst, w); (dst, src, w) ]
