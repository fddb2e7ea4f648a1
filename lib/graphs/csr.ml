type t = {
  n : int;
  offsets : int array;
  targets : int array;
  weights : int array;
  (* Memoized by [out_degrees_cached]; borrowed by the hybrid degree-sum
     heuristic, which reads it once per frontier member per round. *)
  mutable degrees : int array option;
}

let of_rows n (offsets, targets, weights) = { n; offsets; targets; weights; degrees = None }

let of_edge_list (el : Edge_list.t) =
  let n = el.Edge_list.num_vertices in
  let src, dst, w = Edge_list.columns el in
  of_rows n (Csr_build.build ~n ~dedup:false src dst w)

let unsafe_of_arrays ~num_vertices ~offsets ~targets ~weights =
  if Array.length offsets <> num_vertices + 1 then
    invalid_arg "Csr.unsafe_of_arrays: offsets must have n + 1 entries";
  if Array.length targets <> Array.length weights then
    invalid_arg "Csr.unsafe_of_arrays: targets/weights length mismatch";
  if num_vertices > 0 && offsets.(num_vertices) <> Array.length targets then
    invalid_arg "Csr.unsafe_of_arrays: offsets do not cover the edge arrays";
  { n = num_vertices; offsets; targets; weights; degrees = None }

let offsets g = g.offsets
let targets g = g.targets
let weights g = g.weights
let num_vertices g = g.n
let num_edges g = Array.length g.targets
let out_degree g u = g.offsets.(u + 1) - g.offsets.(u)

let iter_out g u f =
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f (Array.unsafe_get g.targets i) (Array.unsafe_get g.weights i)
  done

let fold_out g u f acc =
  let acc = ref acc in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f !acc (Array.unsafe_get g.targets i) (Array.unsafe_get g.weights i)
  done;
  !acc

let edge_range g u = (g.offsets.(u), g.offsets.(u + 1))
let edge_target g i = Array.unsafe_get g.targets i
let edge_weight g i = Array.unsafe_get g.weights i

let to_edge_list g = Edge_list.of_rows ~num_vertices:g.n (g.offsets, g.targets, g.weights)

let transpose g =
  of_rows g.n (Csr_build.transpose ~n:g.n ~offsets:g.offsets ~targets:g.targets ~weights:g.weights)

let symmetrize g =
  let sources = Array.make (num_edges g) 0 in
  for u = 0 to g.n - 1 do
    Array.fill sources g.offsets.(u) (out_degree g u) u
  done;
  of_rows g.n (Csr_build.symmetrize ~n:g.n sources g.targets g.weights)

let max_weight g = Array.fold_left max 0 g.weights

let out_degrees g = Array.init g.n (fun u -> out_degree g u)

let out_degrees_cached g =
  match g.degrees with
  | Some d -> d
  | None ->
      let d = out_degrees g in
      g.degrees <- Some d;
      d

let mem_edge g u v =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let t = g.targets.(mid) in
      if t = v then true else if t < v then search (mid + 1) hi else search lo mid
  in
  search g.offsets.(u) g.offsets.(u + 1)
