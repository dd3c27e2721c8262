"""Hierarchical discretization trees: forward construction, backward pruning,
discretization-error bounds and anti-concentration values.

A tree is stored as columns indexed by node id, with an ``alive`` mask
that lets pruning drop a node without renumbering the others.  The parent
column is the only stored structure: the child lists, the levels, a
depth-first leaf order and the radii are derived from it once, when
:func:`build_forward` or :func:`prune_backward` returns.

The forward pass peels the space into nested covers at geometrically
shrinking radii ``eps_h``.  Every point enters the tree at the depth where
the greedy cover first selects it, and is then carried down level by level
as an explicit self-chain copy, so the nodes at the deepest level are in
bijection with the points.  The parent of a newly selected point is its
nearest earlier tree point; self-chain copies hang under the previous copy
of the same point at distance zero.

The backward pass enforces per-node child capacities dictated by a
geometric budget sequence ``n_h``.  When a node exceeds its capacity the
lowest-valued surplus children are displaced under a freshly created
*pruned node* carrying the parent's location and an anti-concentration
value built from :func:`phi`.  If a pruned node itself overflows the next
level's capacity, the whole pruning pass restarts on the updated tree; the
doubly exponential capacity growth caps the number of restarts at
``ceil(log log n) + 1``.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalError, is_int
from .metric import FiniteMetricSpace, greedy_cover
from .smoothness import SmoothnessModel, confidence_level_u_i, psi_star_inv

_SCHEDULES = ("geometric", "entropy")   # the budget sequences n_h a tree can follow
_EXP_OVERFLOW = 700.0   # exponents beyond this give an effectively infinite capacity
_REL_TOL = 1e-9


def _cover_radius(diameter: float, h: int, shift: int) -> float:
    """The eps schedule: the diameter at depth 0, ``diameter * 2^(-h - shift)`` below."""
    return diameter if h == 0 else diameter * 2.0 ** (-h - shift)


@dataclass(frozen=True)
class TreeNode:
    """One node of a :class:`ChainingTree`, read from its columns."""
    node_id: int
    depth: int
    location: int                 # point id; pruned nodes borrow their parent's point
    parent: int | None            # node id
    pruned: bool = False
    radius: float = 0.0           # sup distance from location to descendant points
    value: float = 0.0            # anti-concentration lower-bound certificate


class _NodeView(Mapping):
    """Read-only ``node id -> TreeNode`` view of a tree's live nodes, in id order."""

    def __init__(self, tree: "ChainingTree"):
        self._tree = tree

    def __getitem__(self, nid) -> TreeNode:
        t = self._tree
        nid = t._node_id(nid, KeyError)
        p = int(t.parent[nid])
        return TreeNode(nid, int(t.depth[nid]), int(t.location[nid]),
                        None if p == -1 else p, bool(t.is_pruned[nid]),
                        float(t.radius[nid]), float(t.value[nid]))

    def __iter__(self):
        return iter(np.flatnonzero(self._tree.alive).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._tree.alive))


class ChainingTree:
    """A leveled discretization tree over a finite metric space, stored as columns.

    Node ids index the columns ``parent`` (-1 at the root), ``depth``,
    ``location``, ``is_pruned``, ``radius``, ``value`` and ``alive``.  The
    constructor takes the first three; its nodes are live and not pruned.
    :func:`prune_backward` returns a copy whose dropped nodes stay in the
    columns, not alive.  A finished tree is treated as immutable and is
    safe for concurrent readers; ``nodes`` is a read-only view of it.
    """

    def __init__(self, space: FiniteMetricSpace, schedule: str, shift: int,
                 parent, depth, location):
        self.space = space
        self.schedule = schedule
        self.shift = shift
        self.parent = np.array(parent, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.location = np.array(location, dtype=np.int64)
        self.is_pruned = np.zeros(len(self.parent), dtype=bool)
        self.radius = np.zeros(len(self.parent))
        self.value = np.zeros(len(self.parent))
        self.alive = np.ones(len(self.parent), dtype=bool)
        self.u: float | None = None          # set by the pruning pass
        self.restart_count: int = 0
        self._entropy_caps: dict[int, float] = {}
        self._derive()

    def _derive(self) -> None:
        """Set the child lists, levels, leaf order and radii from the columns."""
        live = np.flatnonzero(self.alive)
        self._child_ids, self._child_ptr, self._lo, self._hi, leaves, self.levels = _leaf_order(
            self.parent, self.depth, live)
        self._leaf_loc = self.location[leaves]
        self.radius[live] = _radii(self.space, self.location, self._lo, self._hi, leaves, live)
        self._cand_cache: dict[int, np.ndarray] = {}

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> Mapping[int, TreeNode]:
        return _NodeView(self)

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    @property
    def pruned(self) -> bool:
        return self.u is not None

    @property
    def root_id(self) -> int:
        return int(self.levels[0][0])

    def _node_id(self, node_id, error: type[Exception] = ArgumentError) -> int:
        """``node_id`` if it names a live node (an integer, not a bool); ``error`` otherwise."""
        if not (is_int(node_id) and 0 <= node_id < len(self.alive) and self.alive[node_id]):
            raise error(f"unknown node id {node_id}")
        return int(node_id)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[self._node_id(node_id)]

    def children(self, node_id: int) -> np.ndarray:
        """Ids of a node's children, ascending; shared, do not modify."""
        v = self._node_id(node_id)
        return self._child_ids[self._child_ptr[v]:self._child_ptr[v + 1]]

    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.alive & (np.diff(self._child_ptr) == 0))

    def descendant_points(self, node_id: int) -> np.ndarray:
        """Sorted point ids of the leaves below (and including) a node."""
        v = self._node_id(node_id)
        return np.sort(self._leaf_loc[self._lo[v]:self._hi[v]])

    # -- schedules ----------------------------------------------------------

    def epsilon(self, h: int) -> float:
        """Cover radius at depth h; depth 0 uses the diameter."""
        if h < 0:
            raise ArgumentError("depth must be nonnegative")
        return _cover_radius(self.space.diameter, h, self.shift)

    def capacity(self, h: int) -> float:
        """Budget exponent n_h: geometric 2^h, or twice the greedy metric entropy."""
        if h < 0:
            raise ArgumentError("depth must be nonnegative")
        if self.schedule == "geometric":
            return 0.0 if h == 0 else float(2.0 ** h)
        if h not in self._entropy_caps:
            eps = self.epsilon(h)
            if eps <= 0:
                size = self.space.n
            elif h == 0:
                size = 1        # the ball of radius diameter about any point is the space
            else:
                size = len(greedy_cover(self.space, eps))
            self._entropy_caps[h] = 2.0 * math.log(size)
        return self._entropy_caps[h]

    def _u_h(self, h: int) -> float:
        """Pruning level ``u + n_h + h log 2`` of depth h, for the level u it was pruned at."""
        return self.u + self.capacity(h) + h * math.log(2.0)

    def child_capacity(self, parent_depth: int) -> float:
        """Maximum non-pruned children of a node at ``parent_depth``."""
        expo = self.capacity(parent_depth + 1) - self.capacity(parent_depth)
        return math.inf if expo > _EXP_OVERFLOW else math.exp(expo)

    # -- bandit support ------------------------------------------------------

    def candidate_locations(self, h: int) -> np.ndarray:
        """Sorted point ids of non-pruned nodes at depth at most h."""
        h = min(max(h, 0), self.max_depth)
        if h not in self._cand_cache:
            held = self.alive & ~self.is_pruned & (self.depth <= h)
            self._cand_cache[h] = np.unique(self.location[held])
        return self._cand_cache[h]


def _levels(depth: np.ndarray, nodes: np.ndarray) -> list[np.ndarray]:
    """The given node ids grouped by depth, ascending within each depth."""
    order = nodes[np.argsort(depth[nodes], kind="stable")]
    cuts = np.searchsorted(depth[order], np.arange(int(depth[nodes].max(initial=-1)) + 2))
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _leaf_order(parent: np.ndarray, rank: np.ndarray, nodes: np.ndarray):
    """Child lists and depth-first leaf order of a forest over ``nodes`` (ascending ids).

    Each node's parent is -1 or another node of smaller ``rank``.  Returns the
    children as ``kids[ptr[v]:ptr[v + 1]]``, in id order, and ``lo``, ``hi``
    and ``leaves`` such that v's leaves, v included, are ``leaves[lo[v]:hi[v]]``,
    and last the nodes grouped by rank as :func:`_levels` gives them.
    """
    n = len(parent)
    up = np.where(parent >= 0, parent, n)          # tops hang under a virtual node n
    kids = nodes[np.argsort(up[nodes], kind="stable")]      # siblings together, in id order
    ptr = np.concatenate(([0], np.cumsum(np.bincount(up[kids], minlength=n + 1))))
    leaf = nodes[ptr[nodes + 1] == ptr[nodes]]
    size = np.bincount(leaf, minlength=n + 1)
    levels = _levels(rank, nodes)
    for lvl in levels[:0:-1]:                      # leaf counts, bottom-up
        np.add.at(size, up[lvl], size[lvl])
    before = np.cumsum(size[kids]) - size[kids]
    lo = np.zeros(n + 1, dtype=np.int64)
    lo[kids] = before - before[ptr[up[kids]]]      # offsets among siblings
    for lvl in levels[1:]:                         # plus the parent's, top-down
        lo[lvl] += lo[up[lvl]]
    return (kids[:ptr[n]], ptr[:n + 1], lo[:n], lo[:n] + size[:n], leaf[np.argsort(lo[leaf])],
            levels)


def _radii(space: FiniteMetricSpace, location: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           leaves: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Largest distance from each node's location to its leaves: one gather, one segment max."""
    size = hi[nodes] - lo[nodes]
    starts = np.cumsum(size) - size
    below = leaves[np.arange(int(size.sum())) + np.repeat(lo[nodes] - starts, size)]
    return np.maximum.reduceat(
        space.distances(np.repeat(location[nodes], size), location[below]), starts)


def _cell_excess(tree: ChainingTree, paths: np.ndarray, nodes) -> np.ndarray:
    """Each path's maximum over each node's points minus its value at the node's location.

    ``paths`` has one column per point, the result one column per node of
    ``nodes``.  The maximum runs over the node's slice of the leaf order one
    path column at a time, so nothing larger than a column is copied.
    """
    out = np.empty((len(nodes), len(paths))).T
    for k, v in enumerate(np.asarray(nodes, dtype=np.int64).tolist()):
        first, *rest = tree._leaf_loc[tree._lo[v]:tree._hi[v]].tolist()
        col = out[:, k]
        col[:] = paths[:, first]
        for p in rest:
            np.maximum(col, paths[:, p], out=col)
        col -= paths[:, tree.location[v]]
    return out


def restart_limit(n: int) -> int:
    """Pruning restarts allowed for an n-point space: ceil(log log n) + 1."""
    inner = math.log(max(math.log(max(n, 2)), 1.0))
    return max(0, math.ceil(inner)) + 1


def build_forward(space: FiniteMetricSpace, schedule: str = "geometric",
                  shift: int = 1) -> ChainingTree:
    """Forward pass: grow the tree by greedy covers at shrinking radii.

    The root is point 0.  At depth ``h >= 1`` the points farther than
    ``eps_h`` from every tree point are covered greedily and the selected
    centers join the tree, attached to their nearest earlier tree point
    (ties toward the smaller point id).  Points at distance exactly zero
    from a tree point can never become uncovered; they are attached at
    distance zero once everything else has entered.  Each level's columns
    are built in one piece, and the tree is derived once at the end.  Every
    distance is read in row blocks of about 1 MiB, so no m×m float array exists.

    The depth bound comes from the diameter and the smallest positive
    distance, which a coordinate space finds without the n² scan (see
    :meth:`FiniteMetricSpace.min_positive`: a k-d tree proposes, the exact
    formula decides).  After each level the nearest-tree-point update reads
    the new points' distances to the points still to place, not to every
    point: only those are read again.
    """
    if schedule not in _SCHEDULES:
        raise ArgumentError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    if not is_int(shift) or shift not in (0, 1):
        raise ArgumentError("shift must be 0 or 1")
    n = space.n
    parent, depth, location = [np.array([-1])], [np.array([0])], [np.array([0])]
    latest = np.full(n, -1)        # id of each tree point's deepest node
    latest[0] = 0
    best_d = space.row(0).copy()
    best_pt = np.zeros(n, dtype=int)

    diam = space.diameter
    min_pos = space.min_positive(np.arange(n))
    if diam > 0 and min_pos < math.inf:
        h_limit = math.ceil(math.log2(diam / min_pos)) + shift + 3
    else:
        h_limit = 2

    h = 0
    while np.any(latest < 0):
        h += 1
        if h > h_limit:
            raise InternalError("forward pass failed to terminate")
        eps_h = _cover_radius(diam, h, shift)
        remaining = np.flatnonzero(latest < 0)
        uncovered = remaining[best_d[remaining] > eps_h]
        if uncovered.size:
            new_points = np.array(greedy_cover(space, eps_h, uncovered).centers, dtype=int)
        elif np.all(best_d[remaining] == 0.0):
            new_points = remaining                      # exact duplicates
        else:
            new_points = remaining[:0]
        # self-chain copies first, then the new points in cover order
        old = np.flatnonzero(latest >= 0)
        parent.append(latest[np.concatenate((old, best_pt[new_points]))])
        depth.append(np.full(len(old) + len(new_points), h))
        location.append(np.concatenate((old, new_points)))
        latest[location[-1]] = latest.max() + 1 + np.arange(len(location[-1]))
        # nearest tree points of the points still to place, ties toward the
        # smaller id: argmin over ascending ids
        pts, rest = np.sort(new_points), np.flatnonzero(latest < 0)
        for lo, blk in space.row_blocks(pts, rest):
            k = np.argmin(blk, axis=0)
            d, p = blk[k, np.arange(len(rest))], pts[lo + k]
            win = (d < best_d[rest]) | ((d == best_d[rest]) & (p < best_pt[rest]))
            best_d[rest[win]] = d[win]
            best_pt[rest[win]] = p[win]

    return ChainingTree(space, schedule, shift, np.concatenate(parent),
                        np.concatenate(depth), np.concatenate(location))


def phi(alpha: float, delta: float, m: int, u: float) -> float:
    """Anti-concentration certificate for m points packed at spread alpha.

    Guarantees, with probability at least ``1 - exp(-u)``, that the maximum
    of the process over the packed set exceeds the base value by the
    returned amount.  Clamped to zero when ``m <= 3u`` or when the raw
    expression goes negative, which keeps it a valid (if vacuous) bound.
    """
    if alpha <= 0 or delta <= 0:
        raise ArgumentError("alpha and delta must be positive")
    if alpha > 2.0 * delta * (1 + _REL_TOL):
        raise ArgumentError("alpha cannot exceed twice delta")
    if m < 1:
        raise ArgumentError("m must be a positive integer")
    if not u > 0:
        raise ArgumentError("u must be positive")
    if m <= 3.0 * u:
        return 0.0
    raw = alpha / math.sqrt(2.0) * math.sqrt(math.log(m / (3.0 * u))) - 2.0 * delta
    return max(0.0, raw)


def _phi_term(tree: ChainingTree, nid: int) -> float:
    """The phi contribution a pruned node adds on top of its children's values."""
    d, r = int(tree.depth[nid]), float(tree.radius[nid])
    cap = tree.child_capacity(d - 1)
    m = tree.space.n if math.isinf(cap) else int(math.floor(cap))
    if r <= 0:
        return 0.0
    return phi(0.5 * r, r, max(m, 1), tree._u_h(d))


def prune_backward(tree: ChainingTree, u: float) -> ChainingTree:
    """Backward pass: enforce child capacities and compute node values.

    Requires the geometric budget schedule.  Returns a new tree; the input
    is left untouched.  The pass edits copies of the input's columns: pruned
    nodes are appended, and a dropped node is marked not alive, so node ids
    never change.  The tree is derived once, from the final columns.
    """
    if not 0 < u < math.inf:
        raise ArgumentError("u must be positive and finite")
    if tree.schedule != "geometric":
        raise ArgumentError("pruning values require the geometric schedule")
    work = copy.copy(tree)      # the derived structure is rebuilt at the end
    for name in ("parent", "depth", "location", "is_pruned", "radius", "value", "alive"):
        setattr(work, name, getattr(tree, name).copy())
    work.u = float(u)
    work.restart_count = 0
    limit = restart_limit(tree.space.n)
    while not _prune_pass(work, tree):
        work.restart_count += 1
        if work.restart_count > limit:
            raise InternalError(
                f"pruning restarted more than {limit} times on {tree.space.n} points")
    work._derive()
    return work


def build_tree(space: FiniteMetricSpace, schedule: str = "geometric", shift: int = 1,
               u: float = 2.0) -> ChainingTree:
    """Build the forward tree and, under the geometric schedule, prune it at level ``u``.

    The entropy schedule has no pruning values, so its forward tree is final.
    The tree is checked by :func:`validate_tree`; one that fails is an InternalError.
    """
    tree = build_forward(space, schedule=schedule, shift=shift)
    tree = prune_backward(tree, u) if schedule == "geometric" else tree
    check = validate_tree(tree)
    if not check.ok:
        raise InternalError("tree validation failed: " + "; ".join(check.errors))
    return tree


def _prune_pass(tree: ChainingTree, src: ChainingTree) -> bool:
    """One backward sweep over the columns; returns False if the pass must restart.

    Splicing a dropped node's children under a pruned node, or moving a
    dropped leaf one level down under it, changes no node's leaf set, so a
    pruned node's points are those of its dropped nodes in ``src``, the
    tree the pruning started from.
    """
    tree.value[:] = 0.0
    for h in range(int(tree.depth[tree.alive].max()), -1, -1):
        at = np.flatnonzero(tree.alive & (tree.depth == h))
        below = np.flatnonzero(tree.alive & (tree.depth == h + 1))
        np.maximum.at(tree.value, tree.parent[below], tree.value[below])
        for nid in at[tree.is_pruned[at]].tolist():
            tree.value[nid] += _phi_term(tree, nid)
        if h == 0:
            break
        kids = at[~tree.is_pruned[at]]
        cap = tree.child_capacity(h - 1)
        n_below = np.bincount(tree.parent[below], minlength=len(tree.parent))
        for sid in np.flatnonzero(np.bincount(tree.parent[kids]) > cap).tolist():
            mine = kids[tree.parent[kids] == sid]
            dropped = np.sort(mine[np.lexsort((mine, -tree.value[mine]))][int(math.floor(cap)):])
            pid = len(tree.parent)
            for name, val in (("parent", sid), ("depth", h), ("location", tree.location[sid]),
                              ("is_pruned", True), ("radius", 0.0), ("value", 0.0),
                              ("alive", True)):
                setattr(tree, name, np.append(getattr(tree, name), val))
            inner = dropped[n_below[dropped] > 0]
            spliced = below[np.isin(tree.parent[below], inner)]
            moved = dropped[n_below[dropped] == 0]
            tree.alive[inner] = False       # a dropped inner node's point lives on in its self-copy
            tree.parent[spliced] = pid
            tree.parent[moved] = pid        # a leaf has no self-copy below; it moves itself
            tree.depth[moved] = h + 1
            pts = np.concatenate([src._leaf_loc[src._lo[d]:src._hi[d]] for d in dropped.tolist()])
            tree.radius[pid] = float(tree.space.rows([tree.location[sid]], pts).max())
            if len(spliced) + len(moved) > tree.child_capacity(h):
                return False    # restart the pruning on the updated tree
            tree.value[pid] = tree.value[np.concatenate((spliced, moved))].max() + _phi_term(tree, pid)
    return True


def omega_table(tree: ChainingTree, u: float, a: float, model: SmoothnessModel,
                majorized: bool = False) -> np.ndarray:
    """Discretization-error bounds for every depth at once.

    ``table[h]`` is the supremum over leaves of the tail-bound sum along
    the leaf's ancestor chain below depth h; ``table[max_depth] == 0``.
    In majorized mode each chain distance is replaced by the radius of the
    cell one level up.  One sweep per level, deepest first: every closed
    form of :func:`psi_star_inv` is linear in the distance, so one call at
    distance 1 scales the whole level.
    """
    H = tree.max_depth
    table = np.zeros(H + 1)
    below = np.zeros(len(tree.parent))   # largest tail sum from a node down to a leaf
    for h in range(H, 0, -1):
        lvl = tree.levels[h]
        up = tree.parent[lvl]
        dist = (tree.radius[up] if majorized
                else tree.space.distances(tree.location[lvl], tree.location[up]))
        coef = psi_star_inv(model, confidence_level_u_i(u, tree.capacity(h), h, a), 1.0)
        below[lvl] += coef * dist
        np.maximum.at(below, up, below[lvl])
        table[h - 1] = below[lvl].max()
    return table


def omega(tree: ChainingTree, h: int, u: float, a: float, model: SmoothnessModel,
          majorized: bool = False) -> float:
    """Discretization-error bound at depth h (0 beyond the tree depth)."""
    if h < 0:
        raise ArgumentError("depth must be nonnegative")
    if h >= tree.max_depth:
        return 0.0
    return float(omega_table(tree, u, a, model, majorized=majorized)[h])


def lower_value(tree: ChainingTree, node_id: int) -> float:
    """Stored anti-concentration value of a node in a pruned tree."""
    if not tree.pruned:
        raise ArgumentError("lower values exist only after pruning")
    return float(tree.value[tree._node_id(node_id)])


def lower_bound_functional(tree: ChainingTree, node_id: int) -> float:
    """Supremum over descendant leaves of sum_{i>=h} radius(p_i(x)) 2^{i/2}.

    One top-down sweep over the node's subtree, level by level: a node's sum
    is its parent's plus its own term.  The subtree's nodes at a level are
    those whose leaf-order offset falls in the node's slice.
    """
    v = tree._node_id(node_id)
    acc = np.zeros(len(tree.parent))
    acc[v] = tree.radius[v] * 2.0 ** (int(tree.depth[v]) / 2.0)
    for h in range(int(tree.depth[v]) + 1, tree.max_depth + 1):
        lvl = tree.levels[h]
        lvl = lvl[(tree._lo[lvl] >= tree._lo[v]) & (tree._lo[lvl] < tree._hi[v])]
        acc[lvl] = acc[tree.parent[lvl]] + tree.radius[lvl] * 2.0 ** (h / 2.0)
    return float(np.max(acc, where=np.diff(tree._child_ptr) == 0, initial=0.0))


@dataclass
class TreeValidation:
    ok: bool
    errors: list[str]
    warnings: list[str]
    capacity_flags: list[int]     # depths where the level size exceeds e^{n_h}


def validate_tree(tree: ChainingTree) -> TreeValidation:
    """Check the structural invariants of a built (and possibly pruned) tree.

    Hard failures: root/parent structure, parent distances (for nodes whose
    parent is not a pruned node), level separation among non-pruned nodes
    at positive distance, post-pruning child caps, leaf bijection with the
    point set, radius consistency, restart cap.  Monotonicity of radii
    along non-pruned root-to-leaf paths and the per-level budget
    ``|T_h| <= exp(n_h)`` are reported but do not fail validation.

    Every check is a whole-array sweep over the live nodes' columns; the
    children, levels, leaves and descendant points are derived here from
    the parent and depth columns.  The separation check is incremental:
    level h carries a lower bound on the smallest positive distance within
    the level above and reads only the distance rows of the points new at
    h, restricted to the level.  Pairs of points both present one level up
    cannot be closer than that bound, so the rows of the whole level are
    read only when the bound falls below ``eps(h)``, which makes the
    reported separation exact.  The radius check and the monotonicity walk
    run top-down from each node's topmost reachable ancestor, and fail on a
    NaN radius; a dangling parent starts a new chain, and nodes on or below
    a parent cycle (which always fails the parent depth check) are not walked.
    """
    errors: list[str] = []
    warnings: list[str] = []
    space = tree.space
    n_nodes = len(tree.parent)
    live = np.flatnonzero(tree.alive)
    depth, loc, pruned, radius = tree.depth, tree.location, tree.is_pruned, tree.radius

    # ``par``: the parent's id, or -1 for none and for a dangling id
    known = (tree.parent >= 0) & (tree.parent < n_nodes)
    known[known] = tree.alive[tree.parent[known]]
    par = np.where(known & tree.alive, tree.parent, -1)

    top = live[depth[live] == 0]
    if len(top) != 1:
        errors.append("tree must have exactly one root at depth 0")
    if top.size and tree.parent[top[0]] != -1:
        errors.append("root must have no parent")

    issues = [(k, 0, f"node {k} has a dangling parent")
              for k in live[~known[live] & (tree.parent[live] != -1)]]
    child = live[par[live] >= 0]
    for k in child[depth[par[child]] != depth[child] - 1]:
        issues.append((k, 1, f"node {k}: parent depth {depth[par[k]]} != {depth[k] - 1}"))
    # depth 0 has no eps(-1): a depth-0 node with a parent fails the parent depth check
    near = child[~pruned[child] & ~pruned[par[child]] & (depth[child] > 0)]
    if near.size:
        hs, at = np.unique(depth[near] - 1, return_inverse=True)
        bound = np.array([tree.epsilon(h) for h in hs.tolist()])[at]
        d = space.distances(loc[near], loc[par[near]])
        far = d > bound * (1 + _REL_TOL)
        for k, dk, bk in zip(near[far], d[far], bound[far]):
            issues.append((k, 2, f"node {k}: parent distance {dk:g} exceeds "
                                 f"eps({depth[k] - 1})={bk:g}"))
    errors += [msg for _, _, msg in sorted(issues)]

    capacity_flags: list[int] = []
    carried = math.inf    # lower bound on the smallest positive distance one level up
    seen = np.zeros(space.n, dtype=bool)    # locations of the level above
    levels = _levels(depth, live)
    for h, lvl in enumerate(levels):
        locs = loc[lvl[~pruned[lvl]]]
        level = np.unique(locs)
        eps_h = tree.epsilon(h)
        if len(locs) > 1:
            carried = min(carried, space.min_positive(level[~seen[level]], level))
            if carried < eps_h * (1 - _REL_TOL):
                carried = space.min_positive(level, level)    # over distinct points
                if carried < eps_h * (1 - _REL_TOL):
                    errors.append(f"depth {h}: separation {carried:g} below eps={eps_h:g}")
        seen[:] = False
        seen[level] = True
        budget = tree.capacity(h)
        if budget <= _EXP_OVERFLOW and len(locs) > math.exp(budget) * (1 + _REL_TOL):
            capacity_flags.append(h)

    if tree.pruned:
        counts = np.bincount(par[child[~pruned[child]]], minlength=n_nodes)
        hs, at = np.unique(depth[live], return_inverse=True)
        cap = np.array([tree.child_capacity(h) for h in hs.tolist()])[at]
        over = np.isfinite(cap) & (counts[live] > np.floor(cap))
        for k, ck in zip(live[over], cap[over]):
            errors.append(f"node {k}: {counts[k]} children exceed capacity {ck:g}")
        if tree.restart_count > restart_limit(space.n):
            errors.append(f"restart count {tree.restart_count} exceeds the cap")

    leaf = live[np.bincount(par[child], minlength=n_nodes)[live] == 0]
    if not np.array_equal(np.sort(loc[leaf]), np.arange(space.n)):
        errors.append("leaves do not biject with the point set")
    if not tree.pruned and np.any(depth[leaf] != len(levels) - 1):
        errors.append("unpruned tree must carry all leaves at the deepest level")

    steps, anc = (par >= 0).astype(np.int64), par.copy()
    for _ in range(n_nodes.bit_length() + 1):     # pointer doubling: steps to the top
        up = np.flatnonzero(anc >= 0)
        if not up.size:
            break
        steps[up] += steps[anc[up]]
        anc[up] = anc[anc[up]]
    walked = live[anc[live] < 0]                # not on or below a parent cycle
    _, _, lo, hi, below, chains = _leaf_order(par, steps, walked)
    expect = _radii(space, loc, lo, hi, below, walked)
    bad = ~(np.abs(radius[walked] - expect) <= _REL_TOL * np.maximum(1.0, expect))
    for k, rk, ek in zip(walked[bad], radius[walked][bad], expect[bad]):
        errors.append(f"node {k}: stored radius {rk:g} != {ek:g}")

    # Top-down along parent pointers: ``prev`` is the radius of the nearest
    # non-pruned node on the path so far, where ``has`` says there is one,
    # and ``viol`` the first node whose radius grows on the path.
    prev = radius.copy()
    has = ~pruned
    viol = np.full(n_nodes, -1, dtype=np.int64)
    for g in chains[1:]:
        pg = par[g]
        pv = prev[pg]
        viol[g] = viol[pg]
        grows = (viol[g] < 0) & ~pruned[g] & has[pg] & ~(radius[g] <= pv * (1 + _REL_TOL))
        viol[g[grows]] = g[grows]
        prev[g] = np.where(pruned[g], pv, radius[g])
        has[g] |= has[pg]
    grown = viol[leaf]
    warnings += [f"radius grows along path at node {k}" for k in grown[grown >= 0]]

    return TreeValidation(not errors, errors, warnings, capacity_flags)


def write_tree(tree: ChainingTree, path: str) -> None:
    """Serialize one live node per line, in id order, with a header carrying the schedules."""
    H = tree.max_depth
    eps = ",".join(f"{tree.epsilon(h):.12g}" for h in range(H + 1))
    caps = ",".join(f"{tree.capacity(h):.12g}" for h in range(H + 1))
    live = np.flatnonzero(tree.alive)
    rows = zip(live.tolist(), tree.depth[live].tolist(), tree.location[live].tolist(),
               tree.parent[live].tolist(), tree.is_pruned[live].tolist(),
               tree.radius[live].tolist(), tree.value[live].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schedule={tree.schedule} shift={tree.shift}"
                 f" u={'' if tree.u is None else format(tree.u, '.12g')}"
                 f" restart_count={tree.restart_count}\n")
        fh.write(f"# epsilon={eps}\n")
        fh.write(f"# capacity={caps}\n")
        fh.write("node_id,depth,location_id,parent_id,is_pruned,radius,value\n")
        for nid, h, at, up, flag, r, v in rows:
            fh.write(f"{nid},{h},{at},{'' if up == -1 else up},{int(flag)},{r:.12g},{v:.12g}\n")
