type edge = {
  src : int;
  dst : int;
  weight : int;
}

type t = {
  num_vertices : int;
  edges : edge array;
}

let create ~num_vertices edges =
  Array.iter
    (fun { src; dst; weight } ->
      if src < 0 || src >= num_vertices || dst < 0 || dst >= num_vertices then
        invalid_arg "Edge_list.create: endpoint out of range";
      if weight <= 0 then invalid_arg "Edge_list.create: weight must be positive")
    edges;
  { num_vertices; edges }

let num_edges t = Array.length t.edges

let map_weights f t =
  { t with edges = Array.map (fun e -> { e with weight = f e }) t.edges }

let columns t =
  ( Array.map (fun e -> e.src) t.edges,
    Array.map (fun e -> e.dst) t.edges,
    Array.map (fun e -> e.weight) t.edges )

let of_rows ~num_vertices (offsets, targets, weights) =
  let edges = Array.make (Array.length targets) { src = 0; dst = 0; weight = 1 } in
  for u = 0 to num_vertices - 1 do
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      edges.(i) <- { src = u; dst = targets.(i); weight = weights.(i) }
    done
  done;
  { num_vertices; edges }

let dedup t =
  let src, dst, w = columns t in
  of_rows ~num_vertices:t.num_vertices
    (Csr_build.build ~n:t.num_vertices ~dedup:true src dst w)

let symmetrized t =
  let src, dst, w = columns t in
  of_rows ~num_vertices:t.num_vertices (Csr_build.symmetrize ~n:t.num_vertices src dst w)

let concat a b =
  if a.num_vertices <> b.num_vertices then
    invalid_arg "Edge_list.concat: vertex universes differ";
  { a with edges = Array.append a.edges b.edges }
