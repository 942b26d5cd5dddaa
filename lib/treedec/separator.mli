(** The SEP balanced-separator algorithm of Section 3.3 / Lemma 1.

    Given a connected masked subgraph G' of the communication graph and a
    target set X, SEP with parameter [t] either outputs an
    (X, alpha)-balanced separator of size O(t^2) or fails; the driver
    doubles [t] until success ({!find_separator}). Communication is
    priced through {!Repro_shortcut.Primitives.cost} so that parallel
    instances can be combined with Theorem 6.

    Two constant profiles are provided: {!paper_profile} uses the paper's
    exact constants (balance 14399/14400, 95 sampled pairs, threshold
    200 t^2 — meaningful only asymptotically), while {!practical_profile}
    scales them down so that the algorithm exercises its full logic on
    laptop-size instances (DESIGN.md E6 ablates the difference). *)

type profile = {
  name : string;
  threshold_factor : int;  (** step 1 fires when mu(G) <= factor * t^2 *)
  iter_num : int;
  iter_den : int;  (** iterations = ceil(iter_num * t / iter_den) *)
  pairs : int;  (** sampled tree pairs per iteration (step 4) *)
  balance_num : int;
  balance_den : int;  (** separator balance alpha = num/den *)
  split_lo_den : int;  (** split tree min weight = mu(G) / (lo_den * t) *)
  split_hi_den : int;  (** split tree max weight = mu(G) / (hi_den * t) *)
  trials : int;  (** step 4 retries before concluding t is too small *)
  centralized_base : bool;
      (** when the step-1 threshold fires (the subgraph is small enough to
          gather centrally), return a min-fill-derived balanced bag
          instead of all of X. The paper outputs X (asymptotically
          irrelevant); the practical profile enables the centralized base
          for far better widths at laptop sizes. *)
}

val paper_profile : profile
val practical_profile : profile

(** [is_balanced g ~mask ~x_mask ~profile sep] checks that removing [sep]
    from the masked subgraph leaves components of X-weight at most
    [alpha * mu_X(mask)]. *)
val is_balanced :
  Repro_graph.Digraph.t ->
  mask:bool array ->
  x_mask:bool array ->
  profile:profile ->
  int list ->
  bool

(** [find_separator ?profile ?seed ?tree g ~mask ~x_mask ~cost] runs
    SEP attempts, [profile.trials] per value of [t], doubling [t]
    starting from 2 until one succeeds (a failed attempt concludes
    tau + 1 > t; the loop always terminates: step 1 fires once [t^2]
    exceeds the subgraph weight). Returns the separator and the final
    [t]. The masked subgraph must be connected and nonempty.

    Every primitive's charge basis is measured on [tree], the root-0 BFS
    tree of [g]'s skeleton ({!Repro_shortcut.Primitives.charge_tree}),
    shared by every attempt. Without it, one is flooded at entry;
    callers inside loops must build it once and pass it. *)
val find_separator :
  ?profile:profile ->
  ?seed:int ->
  ?tree:Repro_congest.Bfs_tree.tree ->
  Repro_graph.Digraph.t ->
  mask:bool array ->
  x_mask:bool array ->
  cost:Repro_shortcut.Primitives.cost ->
  int list * int
