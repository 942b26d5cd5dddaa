(** Breadth-first traversals, connectivity, and diameter (centralized). *)

(** [bfs g src] is the array of hop distances from [src], following edge
    orientation when [g] is directed. Unreachable vertices hold
    [Digraph.inf]. *)
val bfs : Digraph.t -> int -> int array

(** [bfs_undirected g src] ignores orientation (distances in [[G]]). *)
val bfs_undirected : Digraph.t -> int -> int array

(** [components g] labels every vertex with a component id in [[G]];
    returns [(labels, count)]. *)
val components : Digraph.t -> int array * int

(** [components_mask g mask] restricts to vertices with [mask.(v) = true];
    unmasked vertices are labeled [-1]. *)
val components_mask : Digraph.t -> bool array -> int array * int

val is_connected : Digraph.t -> bool

(** [diameter g] is the exact unweighted diameter of [[G]]
    ([Digraph.inf] when disconnected, 0 for a single vertex). *)
val diameter : Digraph.t -> int
