"""Hierarchical discretization trees: forward construction, backward pruning,
discretization-error bounds and anti-concentration values.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, InternalError
from .metric import FiniteMetricSpace, greedy_cover
from .smoothness import SmoothnessModel, confidence_level_u_i, psi_star_inv

_EXP_OVERFLOW = 700.0   # exponents beyond this give an effectively infinite capacity
_REL_TOL = 1e-9


@dataclass
class TreeNode:
    node_id: int
    depth: int
    location: int                 # point id; pruned nodes borrow their parent's point
    parent: int | None            # node id
    pruned: bool = False
    radius: float = 0.0           # sup distance from location to descendant points
    value: float = 0.0            # anti-concentration lower-bound certificate
    children: list[int] = field(default_factory=list)


class ChainingTree:
    """A leveled discretization tree over a finite metric space.

    Instances are produced by :func:`build_forward` (and transformed by
    :func:`prune_backward`; :func:`build_tree` does both); a finished tree
    is treated as immutable and is safe for concurrent readers.
    """

    def __init__(self, space: FiniteMetricSpace, schedule: str, shift: int):
        self.space = space
        self.schedule = schedule
        self.shift = shift
        self.nodes: dict[int, TreeNode] = {}
        self.levels: list[list[int]] = []
        self.u: float | None = None          # set by the pruning pass
        self.restart_count: int = 0
        self._next_id = 0
        self._entropy_caps: dict[int, float] = {}
        self._desc: dict[int, np.ndarray] = {}
        self._cand_cache: dict[int, np.ndarray] = {}

    # -- structure ---------------------------------------------------------

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    @property
    def pruned(self) -> bool:
        return self.u is not None

    @property
    def root_id(self) -> int:
        return self.levels[0][0]

    def node(self, node_id: int) -> TreeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ArgumentError(f"unknown node id {node_id}") from None

    def new_node(self, depth: int, location: int, parent: int | None,
                 pruned: bool = False) -> TreeNode:
        nid = self._next_id
        self._next_id += 1
        node = TreeNode(nid, depth, location, parent, pruned=pruned)
        self.nodes[nid] = node
        if parent is not None:
            self.nodes[parent].children.append(nid)
        while len(self.levels) <= depth:
            self.levels.append([])
        self.levels[depth].append(nid)
        return node

    def leaves(self) -> list[int]:
        return [nid for nid, nd in sorted(self.nodes.items()) if not nd.children]

    def chain(self, node_id: int) -> list[int]:
        """Node ids from the root down to ``node_id`` (inclusive)."""
        out = []
        nid = node_id
        while nid is not None:
            out.append(nid)
            nid = self.nodes[nid].parent
        out.reverse()
        return out

    def descendant_points(self, node_id: int) -> np.ndarray:
        """Point ids of the leaves below (and including) a node; shared, do not modify."""
        return self._desc[node_id]

    # -- schedules ----------------------------------------------------------

    def epsilon(self, h: int) -> float:
        """Cover radius at depth h; depth 0 uses the diameter."""
        if h < 0:
            raise ArgumentError("depth must be nonnegative")
        if h == 0:
            return self.space.diameter
        return self.space.diameter * 2.0 ** (-h - self.shift)

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
            else:
                size = len(greedy_cover(self.space, eps))
            self._entropy_caps[h] = 2.0 * math.log(size)
        return self._entropy_caps[h]

    def child_capacity(self, parent_depth: int) -> float:
        """Maximum non-pruned children of a node at ``parent_depth``."""
        expo = self.capacity(parent_depth + 1) - self.capacity(parent_depth)
        return math.inf if expo > _EXP_OVERFLOW else math.exp(expo)

    # -- bandit support ------------------------------------------------------

    def candidate_locations(self, h: int) -> np.ndarray:
        """Sorted point ids of non-pruned nodes at depth at most h."""
        h = min(max(h, 0), self.max_depth)
        if h not in self._cand_cache:
            pts = {self.nodes[nid].location
                   for lvl in self.levels[: h + 1] for nid in lvl
                   if not self.nodes[nid].pruned}
            self._cand_cache[h] = np.array(sorted(pts), dtype=int)
        return self._cand_cache[h]

    # -- geometry -----------------------------------------------------------

    def recompute_geometry(self) -> None:
        """Rebuild descendant point sets and radii from the current structure."""
        self._desc.clear()
        self._cand_cache.clear()
        for nd in sorted(self.nodes.values(), key=lambda nd: (-nd.depth, nd.node_id)):
            self._set_geometry(nd)

    def _set_geometry(self, nd: TreeNode) -> None:
        """Set a node's descendant points and radius from its children's."""
        if not nd.children:
            pts = np.array([nd.location], dtype=int)
        elif len(nd.children) == 1:
            pts = self._desc[nd.children[0]]     # already sorted and unique
        else:
            pts = np.unique(np.concatenate([self._desc[c] for c in nd.children]))
        self._desc[nd.node_id] = pts
        nd.radius = float(self.space.row(nd.location)[pts].max())

    def copy(self) -> "ChainingTree":
        out = ChainingTree(self.space, self.schedule, self.shift)
        out.nodes = {nid: TreeNode(nd.node_id, nd.depth, nd.location, nd.parent,
                                   nd.pruned, nd.radius, nd.value, list(nd.children))
                     for nid, nd in self.nodes.items()}
        out.levels = [list(lvl) for lvl in self.levels]
        out.u = self.u
        out.restart_count = self.restart_count
        out._next_id = self._next_id
        out._entropy_caps = dict(self._entropy_caps)
        out._desc = dict(self._desc)     # the arrays are never written in place
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
    distance zero once everything else has entered.  Descendant point sets
    and radii are then set by one bottom-up sweep, deepest level first.
    """
    if schedule not in ("geometric", "entropy"):
        raise ArgumentError(f"schedule must be 'geometric' or 'entropy', got {schedule!r}")
    if shift not in (0, 1):
        raise ArgumentError("shift must be 0 or 1")
    n = space.n
    tree = ChainingTree(space, schedule, shift)
    tree.new_node(0, 0, None)

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_d = space.row(0).copy()
    best_pt = np.zeros(n, dtype=int)
    latest: dict[int, int] = {0: 0}

    diam = space.diameter
    min_pos = None
    if n > 1:
        for i in range(n):
            row = space.row(i)
            pos = row[row > 0]
            if pos.size:
                m = float(pos.min())
                min_pos = m if min_pos is None else min(min_pos, m)
    if diam > 0 and min_pos:
        h_limit = math.ceil(math.log2(diam / min_pos)) + shift + 3
    else:
        h_limit = 2

    h = 0
    while int(in_tree.sum()) < n:
        h += 1
        if h > h_limit:
            raise InternalError("forward pass failed to terminate")
        eps_h = tree.epsilon(h)
        prev_latest = dict(latest)
        prev_best_d = best_d.copy()
        prev_best_pt = best_pt.copy()

        # self-chain copies carry every current tree point one level down
        for pid in sorted(prev_latest):
            node = tree.new_node(h, pid, prev_latest[pid])
            latest[pid] = node.node_id

        remaining = np.flatnonzero(~in_tree)
        uncovered = remaining[prev_best_d[remaining] > eps_h]
        if uncovered.size:
            cover = greedy_cover(space, eps_h, uncovered)
            new_points = cover.centers
        elif remaining.size and np.all(prev_best_d[remaining] == 0.0):
            new_points = [int(p) for p in remaining]   # exact duplicates
        else:
            new_points = []
        for pid in new_points:
            parent_pt = int(prev_best_pt[pid])
            node = tree.new_node(h, pid, prev_latest[parent_pt])
            latest[pid] = node.node_id
            in_tree[pid] = True
            row = space.row(pid)
            closer = row < best_d
            best_d[closer] = row[closer]
            best_pt[closer] = pid
            tie = (row == best_d) & (best_pt > pid)
            best_pt[tie] = pid

    tree.recompute_geometry()
    return tree


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


def _phi_term(tree: ChainingTree, node: TreeNode) -> float:
    """The phi contribution a pruned node adds on top of its children's values."""
    d = node.depth
    cap = tree.child_capacity(d - 1)
    m = tree.space.n if math.isinf(cap) else int(math.floor(cap))
    u_h = tree.u + tree.capacity(d) + d * math.log(2.0)
    if node.radius <= 0:
        return 0.0
    return phi(0.5 * node.radius, node.radius, max(m, 1), u_h)


def prune_backward(tree: ChainingTree, u: float) -> ChainingTree:
    """Backward pass: enforce child capacities and compute node values.

    Requires the geometric budget schedule.  Returns a new tree; the input
    is left untouched.  Descendant point sets and radii are carried over
    from the input, and only each new pruned node has its own computed.
    """
    if not 0 < u < math.inf:
        raise ArgumentError("u must be positive and finite")
    if tree.schedule != "geometric":
        raise ArgumentError("pruning values require the geometric schedule")
    work = tree.copy()
    work.u = float(u)
    work.restart_count = 0
    limit = restart_limit(tree.space.n)
    while True:
        finished = _prune_pass(work)
        if finished:
            break
        work.restart_count += 1
        if work.restart_count > limit:
            raise InternalError(
                f"pruning restarted more than {limit} times on {tree.space.n} points")
    # No closing sweep: splicing a dropped node's children under a pruned
    # node, or moving a dropped leaf one level down under it, leaves the leaf
    # set, and so the radius, of every existing node unchanged.
    return work


def build_tree(space: FiniteMetricSpace, schedule: str = "geometric", shift: int = 1,
               u: float = 2.0) -> ChainingTree:
    """Build the forward tree and, under the geometric schedule, prune it at level ``u``.

    The entropy schedule has no pruning values, so its forward tree is final.
    """
    tree = build_forward(space, schedule=schedule, shift=shift)
    return prune_backward(tree, u) if schedule == "geometric" else tree


def _prune_pass(tree: ChainingTree) -> bool:
    """One backward sweep; returns False if the pass must restart."""
    for nd in tree.nodes.values():
        nd.value = 0.0
    H = tree.max_depth
    for h in range(H, 0, -1):
        for nid in sorted(tree.levels[h]):
            nd = tree.nodes[nid]
            if nd.children:
                nd.value = max(tree.nodes[c].value for c in nd.children)
            if nd.pruned:
                nd.value += _phi_term(tree, nd)
        for sid in sorted(tree.levels[h - 1]):
            s = tree.nodes[sid]
            kids = [tree.nodes[c] for c in s.children if not tree.nodes[c].pruned]
            cap = tree.child_capacity(h - 1)
            if len(kids) <= cap:
                continue
            keep = int(math.floor(cap))
            kids.sort(key=lambda nd: (-nd.value, nd.node_id))
            dropped = kids[keep:]
            pruned = tree.new_node(h, s.location, sid, pruned=True)
            for d_nd in sorted(dropped, key=lambda nd: nd.node_id):
                if d_nd.children:
                    # splice the node out; its point lives on in its self-copy
                    for cid in d_nd.children:
                        tree.nodes[cid].parent = pruned.node_id
                        pruned.children.append(cid)
                    d_nd.children = []
                    _remove_node(tree, d_nd)
                else:
                    # a leaf has no self-copy below; displace the leaf itself
                    _move_node_down(tree, d_nd, pruned.node_id)
            tree._set_geometry(pruned)
            if len(pruned.children) > tree.child_capacity(h):
                return False    # restart the pruning on the updated tree
            pruned.value = max((tree.nodes[c].value for c in pruned.children),
                               default=0.0) + _phi_term(tree, pruned)
    root = tree.nodes[tree.root_id]
    if root.children:
        root.value = max(tree.nodes[c].value for c in root.children)
    return True


def _remove_node(tree: ChainingTree, node: TreeNode) -> None:
    tree.levels[node.depth].remove(node.node_id)
    parent = tree.nodes[node.parent]
    parent.children.remove(node.node_id)
    tree._desc.pop(node.node_id, None)
    del tree.nodes[node.node_id]


def _move_node_down(tree: ChainingTree, node: TreeNode, new_parent: int) -> None:
    tree.levels[node.depth].remove(node.node_id)
    old_parent = tree.nodes[node.parent]
    old_parent.children.remove(node.node_id)
    node.parent = new_parent
    node.depth += 1
    tree.nodes[new_parent].children.append(node.node_id)
    while len(tree.levels) <= node.depth:
        tree.levels.append([])
    tree.levels[node.depth].append(node.node_id)


def parent_at_depth(tree: ChainingTree, node_id: int, h: int) -> int:
    """Ancestor of a node at depth h; the node itself if already at depth <= h."""
    if h < 0:
        raise ArgumentError("depth must be nonnegative")
    nd = tree.node(node_id)
    while nd.depth > h:
        nd = tree.nodes[nd.parent]
    return nd.node_id


def omega_table(tree: ChainingTree, u: float, a: float, model: SmoothnessModel,
                majorized: bool = False) -> np.ndarray:
    """Discretization-error bounds for every depth at once.

    ``table[h]`` is the supremum over leaves of the tail-bound sum along
    the leaf's ancestor chain below depth h; ``table[max_depth] == 0``.
    In majorized mode each chain distance is replaced by the radius of the
    cell one level up.
    """
    H = tree.max_depth
    table = np.zeros(H + 1)
    if H == 0:
        return table
    u_cache: dict[int, float] = {}

    def level_u(i: int) -> float:
        if i not in u_cache:
            u_cache[i] = confidence_level_u_i(u, tree.capacity(i), i, a)
        return u_cache[i]

    space = tree.space
    below: dict[int, float] = {}   # largest tail sum from a node down to a leaf
    for h in range(H, 0, -1):
        for nid in tree.levels[h]:
            nd = tree.nodes[nid]
            parent = tree.nodes[nd.parent]
            dist = parent.radius if majorized else space.distance(nd.location, parent.location)
            below[nid] = (max((below[c] for c in nd.children), default=0.0)
                          + psi_star_inv(model, level_u(h), dist))
        table[h - 1] = max((below[nid] for nid in tree.levels[h]), default=0.0)
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
    return tree.node(node_id).value


def lower_bound_functional(tree: ChainingTree, node_id: int) -> float:
    """Supremum over descendant leaves of sum_{i>=h} radius(p_i(x)) 2^{i/2}."""
    start = tree.node(node_id)
    best = 0.0
    stack = [(start.node_id, 0.0)]
    while stack:
        nid, acc = stack.pop()
        nd = tree.nodes[nid]
        acc += nd.radius * 2.0 ** (nd.depth / 2.0)
        if not nd.children:
            best = max(best, acc)
        else:
            for c in nd.children:
                stack.append((c, acc))
    return best


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

    Every check is a whole-array sweep over the node attributes, read once.
    The separation check is incremental: level h carries a lower bound on
    the smallest positive distance within the level above and gathers only
    the distances from the points new at h to the whole level.  Pairs of
    points both present one level up cannot be closer than that bound, so
    the full level-by-level distance matrix is gathered only when the bound
    falls below ``eps(h)``, which makes the reported separation exact.  The
    monotonicity walk runs top-down from each node's topmost reachable
    ancestor; a dangling parent starts a new chain, and nodes on a parent
    cycle (which always fails the parent depth check) are not walked.
    """
    errors: list[str] = []
    warnings: list[str] = []
    space = tree.space

    if len(tree.levels[0]) != 1 or tree.nodes[tree.levels[0][0]].depth != 0:
        errors.append("tree must have exactly one root at depth 0")
    root = tree.nodes[tree.root_id]
    if root.parent is not None:
        errors.append("root must have no parent")

    # Node attributes in id order; ``par`` is the parent's position, -1 for
    # none and -2 for a dangling id.
    items = sorted(tree.nodes.items())
    n_nodes = len(items)
    ids = np.fromiter((nid for nid, _ in items), np.int64, n_nodes)
    pos_of = {nid: k for k, (nid, _) in enumerate(items)}
    depth = np.fromiter((nd.depth for _, nd in items), np.int64, n_nodes)
    loc = np.fromiter((nd.location for _, nd in items), np.int64, n_nodes)
    par = np.fromiter((-1 if nd.parent is None else pos_of.get(nd.parent, -2)
                       for _, nd in items), np.int64, n_nodes)
    pruned = np.fromiter((nd.pruned for _, nd in items), bool, n_nodes)
    radius = np.fromiter((nd.radius for _, nd in items), float, n_nodes)
    n_kids = np.fromiter((len(nd.children) for _, nd in items), np.int64, n_nodes)

    issues = [(k, 0, f"node {ids[k]} has a dangling parent")
              for k in np.flatnonzero(par == -2)]
    child = np.flatnonzero(par >= 0)
    for k in child[depth[par[child]] != depth[child] - 1]:
        issues.append((k, 1, f"node {ids[k]}: parent depth {depth[par[k]]} != {depth[k] - 1}"))
    near = child[~pruned[child] & ~pruned[par[child]]]
    if near.size:
        eps = {h: tree.epsilon(h) for h in np.unique(depth[near] - 1).tolist()}
        bound = np.array([eps[h] for h in (depth[near] - 1).tolist()])
        d = space.distances(loc[near], loc[par[near]])
        far = d > bound * (1 + _REL_TOL)
        for k, dk, bk in zip(near[far], d[far], bound[far]):
            issues.append((k, 2, f"node {ids[k]}: parent distance {dk:g} exceeds "
                                 f"eps({depth[k] - 1})={bk:g}"))
    errors += [msg for _, _, msg in sorted(issues)]

    capacity_flags: list[int] = []
    carried = math.inf    # lower bound on the smallest positive distance one level up
    seen = np.zeros(space.n, dtype=bool)    # locations of the level above
    for h, lvl in enumerate(tree.levels):
        at = np.fromiter((pos_of[nid] for nid in lvl), np.int64, len(lvl))
        locs = loc[at[~pruned[at]]]
        level = np.unique(locs)
        eps_h = tree.epsilon(h)
        if len(locs) > 1:
            carried = min(carried, _min_positive(space, level[~seen[level]], level))
            if carried < eps_h * (1 - _REL_TOL):
                D = space.pairwise(locs)     # symmetric, zero diagonal
                vals = D[D > 0]     # zero-distance points are indistinguishable
                carried = float(vals.min()) if vals.size else math.inf
                if carried < eps_h * (1 - _REL_TOL):
                    errors.append(f"depth {h}: separation {carried:g} below eps={eps_h:g}")
        seen[:] = False
        seen[level] = True
        budget = tree.capacity(h)
        if budget <= _EXP_OVERFLOW and len(locs) > math.exp(budget) * (1 + _REL_TOL):
            capacity_flags.append(h)

    if tree.pruned:
        kids = np.fromiter((pos_of[c] for _, nd in items for c in nd.children),
                           np.int64, int(n_kids.sum()))
        owner = np.repeat(np.arange(n_nodes), n_kids)
        counts = np.bincount(owner[~pruned[kids]], minlength=n_nodes)
        caps = {h: tree.child_capacity(h) for h in np.unique(depth).tolist()}
        cap = np.array([caps[h] for h in depth.tolist()])
        for k in np.flatnonzero(np.isfinite(cap) & (counts > np.floor(cap))):
            errors.append(f"node {ids[k]}: {counts[k]} children exceed capacity {cap[k]:g}")
        if tree.restart_count > restart_limit(space.n):
            errors.append(f"restart count {tree.restart_count} exceeds the cap")

    leaf = n_kids == 0
    if not np.array_equal(np.sort(loc[leaf]), np.arange(space.n)):
        errors.append("leaves do not biject with the point set")
    if not tree.pruned and np.any(depth[leaf] != tree.max_depth):
        errors.append("unpruned tree must carry all leaves at the deepest level")

    desc = [tree.descendant_points(nid) for nid, _ in items]
    sizes = np.fromiter(map(len, desc), np.int64, n_nodes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    expect = np.maximum.reduceat(space.distances(np.repeat(loc, sizes), np.concatenate(desc)),
                                 starts)
    for k in np.flatnonzero(np.abs(radius - expect) > _REL_TOL * np.maximum(1.0, expect)):
        errors.append(f"node {ids[k]}: stored radius {radius[k]:g} != {expect[k]:g}")

    # Top-down along parent pointers: ``prev`` is the radius of the nearest
    # non-pruned node on the path so far (NaN before the first one, which
    # compares like the walk's missing value), ``viol`` the first node whose
    # radius grows on the path.
    steps, anc = (par >= 0).astype(np.int64), np.where(par >= 0, par, -1)
    for _ in range(n_nodes.bit_length() + 1):     # pointer doubling: steps to the top
        up = np.flatnonzero(anc >= 0)
        if not up.size:
            break
        steps[up] += steps[anc[up]]
        anc[up] = anc[anc[up]]
    walked = anc < 0                        # not on or below a parent cycle
    prev = np.where(pruned, np.nan, radius)
    viol = np.full(n_nodes, -1, dtype=np.int64)
    for s in range(1, int(steps[walked].max(initial=0)) + 1):
        g = np.flatnonzero(walked & (steps == s))
        pv = prev[par[g]]
        viol[g] = viol[par[g]]
        grows = (viol[g] < 0) & ~pruned[g] & (radius[g] > pv * (1 + _REL_TOL))
        viol[g[grows]] = g[grows]
        prev[g] = np.where(pruned[g], pv, radius[g])
    for k in viol[leaf & walked & (viol >= 0)]:
        warnings.append(f"radius grows along path at node {ids[k]}")

    return TreeValidation(not errors, errors, warnings, capacity_flags)


def _min_positive(space: FiniteMetricSpace, rows: np.ndarray, cols: np.ndarray) -> float:
    """Smallest positive distance from ``rows`` to ``cols``, in blocks of 2^20 entries."""
    best = math.inf
    step = max(1, (1 << 20) // max(len(cols), 1))
    for i in range(0, len(rows), step):
        blk = space.pairwise(rows[i:i + step], cols)
        best = min(best, float(np.min(blk, where=blk > 0, initial=math.inf)))
    return best


def write_tree(tree: ChainingTree, path: str) -> None:
    """Serialize one node per line with a header carrying the schedules."""
    H = tree.max_depth
    eps = ",".join(f"{tree.epsilon(h):.12g}" for h in range(H + 1))
    caps = ",".join(f"{tree.capacity(h):.12g}" for h in range(H + 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schedule={tree.schedule} shift={tree.shift}"
                 f" u={'' if tree.u is None else format(tree.u, '.12g')}"
                 f" restart_count={tree.restart_count}\n")
        fh.write(f"# epsilon={eps}\n")
        fh.write(f"# capacity={caps}\n")
        fh.write("node_id,depth,location_id,parent_id,is_pruned,radius,value\n")
        for nid, nd in sorted(tree.nodes.items()):
            parent = "" if nd.parent is None else str(nd.parent)
            fh.write(f"{nid},{nd.depth},{nd.location},{parent},"
                     f"{int(nd.pruned)},{nd.radius:.12g},{nd.value:.12g}\n")
