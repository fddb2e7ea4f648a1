(** Weighted directed edge lists, the exchange format between generators,
    file loaders, and the CSR builder. *)

type edge = {
  src : int;
  dst : int;
  weight : int;
}

type t = {
  num_vertices : int;
  edges : edge array;
}

(** [create ~num_vertices edges] validates that every endpoint lies in
    [0, num_vertices) and every weight is positive. *)
val create : num_vertices:int -> edge array -> t

(** [num_edges t] is the number of directed edges. *)
val num_edges : t -> int

(** [map_weights f t] applies [f] to every edge's weight. *)
val map_weights : (edge -> int) -> t -> t

(** [columns t] is [(src, dst, weight)] as three unboxed arrays, in edge
    order. *)
val columns : t -> int array * int array * int array

(** [of_rows ~num_vertices (offsets, targets, weights)] lists the edges
    of CSR arrays row by row. *)
val of_rows : num_vertices:int -> int array * int array * int array -> t

(** [symmetrized t] is the undirected closure: both directions of every edge,
    parallel edges deduplicated keeping the minimum weight, self-loops
    dropped. This matches the paper's symmetrization for k-core and
    SetCover. Edges come out sorted by (src, dst). *)
val symmetrized : t -> t

(** [dedup t] removes parallel edges (keeping minimum weight) and
    self-loops; edges come out sorted by (src, dst). *)
val dedup : t -> t

(** [concat a b] merges two edge lists over the same vertex universe. *)
val concat : t -> t -> t
