"""Tests for tree construction, pruning, error bounds and lower-bound values."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import (ArgumentError, ChainingTree, FiniteMetricSpace, InternalError, Kernel,
                      build_forward, build_tree, canonical_metric_space, greedy_cover,
                      is_cover, lower_bound_functional, lower_value, make_star, omega,
                      omega_table, phi, prune_backward,
                      sample_paths, validate_tree, write_tree, zeta)
from chainopt import chaining, metric
from chainopt.chaining import (_EXP_OVERFLOW, _REL_TOL, TreeValidation, _cell_excess,
                               restart_limit)
from chainopt.smoothness import SmoothnessModel, confidence_level_u_i, psi_star_inv
from conftest import tied_spaces, ultrametric_spaces


@pytest.fixture
def line5_tree():
    sp = FiniteMetricSpace.from_coordinates(np.arange(5.0))
    return build_forward(sp)


def _chain_space_and_tree(depth):
    """A path of nodes, one per level, with step i of length 2^-i."""
    locs = np.cumsum([0.0] + [2.0 ** -i for i in range(1, depth + 1)])
    sp = FiniteMetricSpace.from_coordinates(locs)
    ids = np.arange(depth + 1)
    return sp, ChainingTree(sp, "geometric", 1, ids - 1, ids, ids)


class TestBuildForward:
    def test_singleton_space(self):
        tree = build_forward(FiniteMetricSpace.from_coordinates([[0.0]]))
        assert tree.max_depth == 0
        assert len(tree.nodes) == 1
        assert validate_tree(tree).ok

    def test_line_first_level_is_a_net(self, line5_tree):
        # diameter 4 gives eps_1 = 1.0 under the default shift
        assert line5_tree.epsilon(1) == pytest.approx(1.0)
        sp = line5_tree.space
        locs = {line5_tree.nodes[n].location for n in np.concatenate(line5_tree.levels[:2])}
        assert is_cover(sp, sorted(locs), 1.0)

    def test_every_level_covers_the_space(self, line5_tree):
        sp = line5_tree.space
        for h in range(line5_tree.max_depth + 1):
            locs = {line5_tree.nodes[n].location
                    for lvl in line5_tree.levels[: h + 1] for n in lvl}
            assert is_cover(sp, sorted(locs), line5_tree.epsilon(h))

    def test_root_is_smallest_id(self, line5_tree):
        assert line5_tree.nodes[line5_tree.root_id].location == 0

    def test_leaves_biject_with_points(self, line5_tree):
        leaves = line5_tree.leaves()
        assert sorted(line5_tree.nodes[n].location for n in leaves) == list(range(5))
        assert all(line5_tree.nodes[n].depth == line5_tree.max_depth for n in leaves)

    def test_validates_on_random_spaces(self):
        rng = np.random.default_rng(2)
        for seed in range(8):
            n = int(rng.integers(3, 40))
            dim = int(rng.integers(1, 4))
            sp = FiniteMetricSpace.from_coordinates(rng.uniform(size=(n, dim)))
            for schedule in ("geometric", "entropy"):
                tree = build_forward(sp, schedule=schedule)
                result = validate_tree(tree)
                assert result.ok, result.errors

    def test_kernel_metric_space(self):
        sp = canonical_metric_space(Kernel("se", 0.2), np.linspace(0, 1, 30))
        tree = build_forward(sp, schedule="entropy")
        assert validate_tree(tree).ok

    def test_duplicate_points_are_attached(self):
        D = np.zeros((4, 4))
        for i, j, v in ((0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)):
            D[i, j] = D[j, i] = v
        # points 0 and 1 coincide under the pseudo-metric
        sp = FiniteMetricSpace.from_distance_matrix(D)
        tree = build_forward(sp)
        assert sorted(tree.nodes[n].location for n in tree.leaves()) == [0, 1, 2, 3]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(size=(25, 2))
        t1 = build_forward(FiniteMetricSpace.from_coordinates(coords))
        t2 = build_forward(FiniteMetricSpace.from_coordinates(coords))
        assert [(n.depth, n.location, n.parent) for n in t1.nodes.values()] == \
               [(n.depth, n.location, n.parent) for n in t2.nodes.values()]

    def test_shift_zero_schedule(self):
        sp = FiniteMetricSpace.from_coordinates(np.arange(5.0))
        tree = build_forward(sp, shift=0)
        assert tree.epsilon(1) == pytest.approx(2.0)
        assert validate_tree(tree).ok


class TestPruneBackward:
    def test_star_structure(self):
        tree = prune_backward(build_forward(make_star(50)), 1.0)
        root = tree.nodes[tree.root_id]
        kids = tree.children(tree.root_id).tolist()
        kept = [tree.nodes[c] for c in kids if not tree.nodes[c].pruned]
        pruned = [tree.nodes[c] for c in kids if tree.nodes[c].pruned]
        assert len(kept) == 7 and len(pruned) == 1
        # ties in the all-zero values break toward the smallest node id
        assert [k.node_id for k in kept] == kids[:7]
        assert len(tree.descendant_points(pruned[0].node_id)) == 43
        assert pruned[0].location == root.location
        assert tree.restart_count == 1
        assert validate_tree(tree).ok

    def test_star_second_level_split(self):
        tree = prune_backward(build_forward(make_star(50)), 1.0)
        first = next(c for c in tree.children(tree.root_id) if tree.is_pruned[c])
        second = [c for c in tree.children(first) if tree.is_pruned[c]]
        kept = [c for c in tree.children(first) if not tree.is_pruned[c]]
        assert len(second) == 1 and len(kept) == 7
        assert len(tree.children(second[0])) == 36

    def test_balanced_tree_untouched(self):
        sp = FiniteMetricSpace.from_coordinates(np.arange(6.0))
        tree = build_forward(sp)
        pruned = prune_backward(tree, 2.0)
        assert not any(nd.pruned for nd in pruned.nodes.values())
        assert len(pruned.nodes) == len(tree.nodes)
        assert all(nd.value == 0.0 for nd in pruned.nodes.values())
        assert pruned.restart_count == 0

    def test_requires_geometric_schedule(self):
        sp = FiniteMetricSpace.from_coordinates(np.arange(6.0))
        tree = build_forward(sp, schedule="entropy")
        with pytest.raises(ArgumentError):
            prune_backward(tree, 1.0)

    def test_leaf_bijection_preserved(self):
        for n in (20, 50, 64):
            tree = prune_backward(build_forward(make_star(n)), 1.0)
            leaves = tree.leaves()
            assert sorted(tree.nodes[x].location for x in leaves) == list(range(n))

    def test_input_tree_untouched(self):
        tree = build_forward(make_star(30))
        before = len(tree.nodes)
        prune_backward(tree, 1.0)
        assert len(tree.nodes) == before
        assert not tree.pruned

    def test_restart_cap_obeyed(self):
        for n in (16, 50, 64, 128):
            tree = prune_backward(build_forward(make_star(n)), 1.0)
            limit = max(0, math.ceil(math.log(max(math.log(n), 1.0)))) + 1
            assert tree.restart_count <= limit


class TestPhi:
    def test_clamps_at_boundary(self):
        assert phi(1.0, 1.0, 3, 1.0) == 0.0  # m = 3u exactly

    def test_direct_value(self):
        m = math.ceil(3 * math.e ** 8)
        val = phi(2.0, 1.0, m, 1.0)
        expect = 2.0 / math.sqrt(2) * math.sqrt(math.log(m / 3.0)) - 2.0
        assert val == pytest.approx(expect)
        assert val == pytest.approx(2.0, abs=2e-4)

    def test_negative_raw_clamps(self):
        assert phi(0.1, 1.0, 10, 1.0) == 0.0

    def test_alpha_exceeding_twice_delta(self):
        with pytest.raises(ArgumentError):
            phi(2.1, 1.0, 10, 1.0)

    def test_monotone_in_m(self):
        vals = [phi(math.sqrt(2), 1.0, m, 1.0) for m in (200, 500, 2000, 10000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_packed_maximum_monte_carlo(self):
        # base value 0 plus m-1 unit normals at mutual spread sqrt(2), within 1
        rng = np.random.default_rng(10)
        m, u = 200, 1.0
        threshold = phi(math.sqrt(2.0), 1.0, m, u)
        assert threshold > 0.0
        trials = 20_000
        maxima = np.maximum(rng.standard_normal((trials, m - 1)).max(axis=1), 0.0)
        fail = float(np.mean(maxima < threshold))
        bound = math.exp(-u)
        assert fail <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)

    def test_independent_maximum_threshold(self):
        # max of m independent normals exceeds sqrt(log(m / 2.6u)) typically
        rng = np.random.default_rng(11)
        trials = 20_000
        for m, u in ((26, 1.0), (260, 10.0)):
            thr = math.sqrt(math.log(m / (2.6 * u)))
            maxima = rng.standard_normal((trials, m)).max(axis=1)
            fail = float(np.mean(maxima < thr))
            bound = math.exp(-u)
            assert fail <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)


class TestOmega:
    def test_zero_at_max_depth(self, line5_tree):
        model = SmoothnessModel.gaussian()
        assert omega(line5_tree, line5_tree.max_depth, 1.0, 2.0, model) == 0.0
        assert omega(line5_tree, 99, 1.0, 2.0, model) == 0.0

    def test_single_chain_matches_direct_sum(self):
        sp, tree = _chain_space_and_tree(8)
        model = SmoothnessModel.gaussian()
        u, a = 1.0, 2.0
        logz = math.log(zeta(a))
        for h in range(0, 9):
            expect = 0.0
            for i in range(h + 1, 9):
                u_i = u + 2.0 ** i + a * math.log(i) + logz
                expect += math.sqrt(2 * u_i) * 2.0 ** -i
            assert omega(tree, h, u, a, model) == pytest.approx(expect, rel=1e-12)

    def test_nonincreasing_in_depth(self, line5_tree):
        model = SmoothnessModel.gaussian()
        tab = omega_table(line5_tree, 2.0, 2.0, model)
        assert all(a >= b - 1e-12 for a, b in zip(tab, tab[1:]))

    def test_majorized_dominates_exact(self):
        sp = FiniteMetricSpace.from_coordinates(np.linspace(0, 1, 20))
        tree = build_forward(sp)
        model = SmoothnessModel.gaussian()
        exact = omega_table(tree, 2.0, 2.0, model)
        major = omega_table(tree, 2.0, 2.0, model, majorized=True)
        # chain steps d(p_i, p_{i-1}) never exceed the parent cell radius
        assert np.all(major >= exact - 1e-9)

    def test_uses_capacity_schedule(self):
        sp = FiniteMetricSpace.from_coordinates(np.linspace(0, 1, 20))
        geo = build_forward(sp, schedule="geometric")
        ent = build_forward(sp, schedule="entropy")
        model = SmoothnessModel.gaussian()
        v_geo = omega(geo, 0, 2.0, 2.0, model)
        v_ent = omega(ent, 0, 2.0, 2.0, model)
        assert v_geo != pytest.approx(v_ent)


class TestEntropyCapacity:
    @staticmethod
    def _counted(monkeypatch, space):
        """A fresh entropy tree over ``space`` and the list of its ``greedy_cover`` calls."""
        calls = []

        def cover(*args):
            calls.append(args)
            return greedy_cover(*args)
        monkeypatch.setattr(chaining, "greedy_cover", cover)
        return ChainingTree(space, "entropy", 1, [-1], [0], [0]), calls

    def test_depth_zero_needs_no_cover(self, monkeypatch):
        tree, calls = self._counted(monkeypatch, FiniteMetricSpace.from_coordinates(np.arange(9.0)))
        assert tree.capacity(0) == 0.0 and calls == []
        assert tree.capacity(1) == 2.0 * math.log(len(greedy_cover(tree.space, 2.0)))
        assert len(calls) == 1

    def test_identical_points_keep_two_log_n(self, monkeypatch):
        tree, calls = self._counted(monkeypatch, FiniteMetricSpace.from_coordinates(np.zeros(5)))
        assert tree.capacity(0) == 2.0 * math.log(5) and calls == []


class TestLowerValue:
    def test_requires_pruned_tree(self, line5_tree):
        with pytest.raises(ArgumentError):
            lower_value(line5_tree, line5_tree.root_id)

    def test_leaves_are_zero(self):
        tree = prune_backward(build_forward(make_star(50)), 1.0)
        for leaf in tree.leaves():
            assert lower_value(tree, leaf) == 0.0

    def test_no_pruned_nodes_all_zero(self):
        sp = FiniteMetricSpace.from_coordinates(np.arange(8.0))
        tree = prune_backward(build_forward(sp), 1.0)
        assert all(lower_value(tree, nid) == 0.0 for nid in tree.nodes)

    def test_unknown_node(self):
        tree = prune_backward(build_forward(make_star(20)), 1.0)
        with pytest.raises(ArgumentError):
            lower_value(tree, 10_000)

    def test_matches_chain_sum_definition(self):
        # stored values equal the supremum over descendant chains of the
        # summed pruned-node contributions below the node's depth
        tree = prune_backward(build_forward(make_star(50)), 1.0)

        def phi_term(nd):
            cap = tree.child_capacity(nd.depth - 1)
            m = int(math.floor(cap)) if not math.isinf(cap) else tree.space.n
            u_h = tree.u + tree.capacity(nd.depth) + nd.depth * math.log(2.0)
            return phi(0.5 * nd.radius, nd.radius, m, u_h) if nd.radius > 0 else 0.0

        def chain_sum(nid):
            nd = tree.nodes[nid]
            own = phi_term(nd) if nd.pruned else 0.0
            if not tree.children(nid).size:
                return own
            return own + max(chain_sum(c) for c in tree.children(nid))

        for nid, nd in tree.nodes.items():
            expect = chain_sum(nid) if nd.pruned else \
                (max((chain_sum(c) for c in tree.children(nid)), default=0.0))
            assert lower_value(tree, nid) == pytest.approx(expect, abs=1e-12)


class TestLowerBoundFunctional:
    def test_leaf_is_zero(self):
        tree = prune_backward(build_forward(make_star(30)), 1.0)
        for leaf in tree.leaves():
            assert lower_bound_functional(tree, leaf) == 0.0

    def test_single_chain_geometric_sum(self):
        _, tree = _chain_space_and_tree(6)
        tree.radius[:] = 2.0 ** -tree.depth
        expect = sum(2.0 ** (-i / 2.0) for i in range(0, 7))
        assert lower_bound_functional(tree, tree.root_id) == pytest.approx(expect)

    def test_nonincreasing_along_path(self):
        _, tree = _chain_space_and_tree(6)
        tree.radius[:] = 2.0 ** -tree.depth
        vals = [lower_bound_functional(tree, nid) for nid in range(7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_star_root_positive(self):
        tree = prune_backward(build_forward(make_star(40)), 1.0)
        assert lower_bound_functional(tree, tree.root_id) > 0.0


def _tree_with_dead_nodes():
    """A pruned 30-point cloud whose pruning dropped an inner node."""
    sp = FiniteMetricSpace.from_coordinates(np.random.default_rng(1).uniform(size=(30, 2)))
    tree = prune_backward(build_forward(sp), 0.5)
    assert not tree.alive.all()
    return tree


def _functional_by_stack_walk(tree, nid):
    """The functional as the depth-first walk that calls ``children`` node by node."""
    best, stack = 0.0, [(nid, 0.0)]
    while stack:
        v, acc = stack.pop()
        acc += float(tree.radius[v]) * 2.0 ** (int(tree.depth[v]) / 2.0)
        kids = tree.children(v)
        if not kids.size:
            best = max(best, acc)
        stack.extend((c, acc) for c in kids.tolist())
    return best


class TestLowerBoundSweep:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: prune_backward(build_forward(make_star(64)), 1.0), id="star64"),
        pytest.param(_tree_with_dead_nodes, id="dead-nodes"),
        pytest.param(lambda: build_tree(FiniteMetricSpace.from_coordinates(
            np.random.default_rng(5).uniform(size=(120, 2)))), id="cloud120"),
        pytest.param(lambda: build_forward(FiniteMetricSpace.from_coordinates(np.arange(9.0))),
                     id="line9-forward")])
    def test_level_sweep_gives_the_bits_of_the_stack_walk(self, make):
        tree = make()
        for nid in tree.nodes:
            assert lower_bound_functional(tree, nid) == _functional_by_stack_walk(tree, nid)


class TestNodeIds:
    """One check on the columns: an integer, not a bool, in range and alive."""

    @pytest.fixture(scope="class")
    def tree(self):
        return _tree_with_dead_nodes()

    def test_bad_ids_are_argument_errors_and_missing_keys(self, tree):
        dead = int(np.flatnonzero(~tree.alive)[0])
        reads = [tree.node, tree.children, tree.descendant_points,
                 lambda v: lower_value(tree, v), lambda v: lower_bound_functional(tree, v)]
        for bad in (True, False, 1.0, -1, dead, len(tree.alive), np.float64(2.0)):
            for read in reads:
                with pytest.raises(ArgumentError, match="unknown node id"):
                    read(bad)
            with pytest.raises(KeyError):
                tree.nodes[bad]
            assert bad not in tree.nodes

    def test_integer_ids_of_any_kind_read_the_same_node(self, tree):
        v = int(tree.levels[1][0])
        for nid in (v, np.int64(v), np.uint16(v)):
            assert tree.node(nid) == tree.nodes[nid] == tree.nodes[v]
            assert tree.node(nid).node_id == v and type(tree.node(nid).node_id) is int
            assert np.array_equal(tree.children(nid), tree.children(v))
            assert np.array_equal(tree.descendant_points(nid), tree.descendant_points(v))
            assert lower_value(tree, nid) == lower_value(tree, v)


class TestUpperBoundMonteCarlo:
    def test_joint_event_frequency(self):
        kernel = Kernel("se", 0.2)
        sp = canonical_metric_space(kernel, np.linspace(0, 1, 30))
        tree = build_forward(sp, schedule="entropy")
        model = SmoothnessModel.gaussian()
        u, a = 2.0, 2.0
        tab = omega_table(tree, u, a, model)
        paths = sample_paths(sp, kernel, 500, seed=123)
        viol = np.zeros(500, dtype=bool)
        for nid, nd in tree.nodes.items():
            desc = tree.descendant_points(nid)
            if desc.size <= 1:
                continue
            bound = tab[nd.depth] if nd.depth < len(tab) else 0.0
            viol |= paths[:, desc].max(axis=1) - paths[:, nd.location] > bound + 1e-9
        rate = float(viol.mean())
        bound_p = math.exp(-u)
        assert rate <= bound_p + 3 * math.sqrt(bound_p * (1 - bound_p) / 500)


class TestLowerBoundMonteCarlo:
    def test_value_event_on_star(self):
        # values certify sup f - f(s) >= V at pruned nodes; with geometric
        # budgets the clamp makes V zero, so the event can never fail
        tree = prune_backward(build_forward(make_star(64)), 1.0)
        paths = sample_paths(tree.space, None, 400, seed=9)
        for nid, nd in tree.nodes.items():
            if not nd.pruned or nd.value <= 0.0:
                continue
            desc = tree.descendant_points(nid)
            excess = paths[:, desc].max(axis=1) - paths[:, nd.location]
            u_h = 1.0 + tree.capacity(nd.depth) + nd.depth * math.log(2.0)
            fail = float(np.mean(excess < nd.value - 1e-9))
            bound = math.exp(-u_h)
            assert fail <= bound + 3 * math.sqrt(bound * (1 - bound) / 400)

    def test_root_ratio_distribution(self):
        tree = prune_backward(build_forward(make_star(64)), 1.0)
        paths = sample_paths(tree.space, None, 400, seed=10)
        root = tree.root_id
        denom = lower_bound_functional(tree, root)
        assert denom > 0
        sup = paths.max(axis=1) - paths[:, tree.nodes[root].location]
        ratios = sup / denom
        assert float(np.quantile(ratios, 0.05)) > 0.0


class TestSerialization:
    def test_header_and_rows(self, tmp_path, line5_tree):
        tree = prune_backward(line5_tree, 2.0)
        out = tmp_path / "tree.txt"
        write_tree(tree, str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schedule=geometric shift=1 u=2")
        assert lines[1].startswith("# epsilon=")
        assert lines[2].startswith("# capacity=")
        assert lines[3] == "node_id,depth,location_id,parent_id,is_pruned,radius,value"
        assert len(lines) == 4 + len(tree.nodes)
        root_row = lines[4].split(",")
        assert root_row[0] == "0" and root_row[3] == "" and root_row[4] == "0"


def _root_chain(tree, nid):
    """Node ids from the root down to ``nid``, walked along ``tree.nodes[...].parent``."""
    chain = [nid]
    while tree.nodes[chain[-1]].parent is not None:
        chain.append(tree.nodes[chain[-1]].parent)
    return chain[::-1]


def _omega_by_leaf_chains(tree, u, a, model, majorized):
    """omega_table's definition: a suffix sum along every leaf's root chain."""
    table = np.zeros(tree.max_depth + 1)
    for leaf in tree.leaves():
        chain = _root_chain(tree, leaf)
        depth = len(chain) - 1
        terms = np.zeros(depth + 1)
        for i in range(1, depth + 1):
            cur, prev = tree.nodes[chain[i]], tree.nodes[chain[i - 1]]
            dist = (prev.radius if majorized
                    else tree.space.distance(cur.location, prev.location))
            u_i = confidence_level_u_i(u, tree.capacity(i), i, a)
            terms[i] = psi_star_inv(model, u_i, dist)
        suffix = np.cumsum(terms[::-1])[::-1]
        for h in range(depth):
            table[h] = max(table[h], suffix[h + 1])
    return table


@st.composite
def _small_spaces(draw):
    """Stars, clouds on a 1/64 lattice (ties and exact duplicates are common), shortest
    paths over integer weights with zeros, or pseudo-ultrametrics."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return make_star(draw(st.integers(1, 60)))
    if kind == 1:
        return draw(tied_spaces())
    if kind == 2:
        return draw(ultrametric_spaces())
    dim = draw(st.integers(1, 2))
    coord = st.integers(0, 256).map(lambda k: k / 64.0)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=45))
    dups = draw(st.lists(st.integers(0, len(pts) - 1), max_size=15))
    return FiniteMetricSpace.from_coordinates(np.array(pts + [pts[i] for i in dups]))


class TestTreeProperties:
    @given(space=_small_spaces(), schedule=st.sampled_from(["geometric", "entropy"]),
           shift=st.sampled_from([0, 1]), u=st.sampled_from([0.5, 2.0]))
    def test_built_tree_invariants(self, space, schedule, shift, u):
        tree = build_tree(space, schedule, shift, u)
        kids = {nid: [] for nid in tree.nodes}
        for nid, nd in tree.nodes.items():
            if nd.parent is not None:
                kids[nd.parent].append(nid)
        below = {nid: set() for nid in tree.nodes}
        for leaf in tree.leaves():
            for nid in _root_chain(tree, leaf):
                below[nid].add(tree.nodes[leaf].location)
        for nid, nd in tree.nodes.items():
            assert tree.children(nid).tolist() == kids[nid]
            assert nid in tree.levels[nd.depth]
            assert tree.descendant_points(nid).tolist() == sorted(below[nid])
            assert nd.radius == tree.space.row(nd.location)[sorted(below[nid])].max()
        assert sum(map(len, tree.levels)) == len(tree.nodes)
        for model in (SmoothnessModel.gaussian(), SmoothnessModel.sub_gamma(1.5, 0.3),
                      SmoothnessModel.squared_gp(2)):
            for majorized in (False, True):
                got = omega_table(tree, u, 2.0, model, majorized=majorized)
                want = _omega_by_leaf_chains(tree, u, 2.0, model, majorized)
                assert np.array_equal(got, want)
        check = validate_tree(tree)
        assert check.ok and check == _validate_tree_by_loops(tree)


def _build_forward_by_loops(space, schedule, shift):
    """Reference oracle for build_forward: the smallest positive distance and each new
    point's nearest-tree-point update as loops over single rows, in cover order."""
    n = space.n
    parent, depth, location = [-1], [0], [0]
    latest = np.full(n, -1)
    latest[0] = 0
    best_d = space.row(0).copy()
    best_pt = np.zeros(n, dtype=int)
    pos = [space.row(i)[space.row(i) > 0].min() for i in range(n) if space.row(i).max() > 0]
    h_limit = math.ceil(math.log2(space.diameter / min(pos))) + shift + 3 if pos else 2
    h = 0
    while np.any(latest < 0):
        h += 1
        assert h <= h_limit
        eps_h = space.diameter * 2.0 ** (-h - shift)
        remaining = np.flatnonzero(latest < 0)
        uncovered = remaining[best_d[remaining] > eps_h]
        if uncovered.size:
            new_points = list(greedy_cover(space, eps_h, uncovered).centers)
        elif np.all(best_d[remaining] == 0.0):
            new_points = remaining.tolist()
        else:
            new_points = []
        old = np.flatnonzero(latest >= 0).tolist()
        for p, up in [(p, latest[p]) for p in old] + [(p, latest[best_pt[p]]) for p in new_points]:
            parent.append(int(up))
            depth.append(h)
            location.append(p)
            latest[p] = len(location) - 1
        for pid in new_points:
            row = space.row(pid)
            closer = row < best_d
            best_d[closer] = row[closer]
            best_pt[closer] = pid
            tie = (row == best_d) & (best_pt > pid)
            best_pt[tie] = pid
    return ChainingTree(space, schedule, shift, parent, depth, location)


class TestBuildForwardByBlocks:
    """build_forward reads distance rows in blocks; the per-row loops are its oracle."""

    @staticmethod
    def _built(space, schedule, shift, per_block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric, "_BLOCK_BYTES", 8 * space.n * per_block)
            return build_forward(space, schedule, shift)

    @settings(max_examples=60)
    @given(space=_small_spaces(), schedule=st.sampled_from(["geometric", "entropy"]),
           shift=st.sampled_from([0, 1]), per_block=st.integers(1, 3))
    def test_matches_the_row_loops(self, space, schedule, shift, per_block):
        got = self._built(space, schedule, shift, per_block)
        want = _build_forward_by_loops(space, schedule, shift)
        for col in ("parent", "depth", "location"):
            assert np.array_equal(getattr(got, col), getattr(want, col))

    @pytest.mark.parametrize("matrix", [False, True])
    def test_every_read_is_restricted_to_columns(self, monkeypatch, matrix):
        # the covers read their m×m block and the nearest-point update only the
        # points still to place; whole rows are read only by a matrix space's
        # depth-bound scan
        sp = FiniteMetricSpace.from_coordinates(
            np.random.default_rng(3).integers(0, 33, size=(300, 2)) / 32.0)
        if matrix:
            sp = FiniteMetricSpace.from_distance_matrix(sp.pairwise(np.arange(sp.n)))
        want = build_forward(sp)
        widths, inner = [], FiniteMetricSpace.row_blocks

        def spy(space, ids, cols=None):
            widths.append(None if cols is None else len(cols))
            return inner(space, ids, cols)

        monkeypatch.setattr(FiniteMetricSpace, "row_blocks", spy)
        got = build_forward(sp)
        assert np.array_equal(got.parent, want.parent)
        assert np.array_equal(got.location, want.location)
        assert widths.count(None) == int(matrix) < len(widths)

    def test_points_entering_out_of_id_order(self):
        # lattice ties and duplicates; some level's covers select points out of id order
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 8, size=(60, 2)) / 4.0
        sp = FiniteMetricSpace.from_coordinates(np.concatenate((pts, pts[:10])))
        want = _build_forward_by_loops(sp, "geometric", 1)
        for per_block in (1, 2, 3, sp.n):
            got = self._built(sp, "geometric", 1, per_block)
            assert np.array_equal(got.parent, want.parent)
            assert np.array_equal(got.location, want.location)
        entered = [got.location[lvl][got.location[lvl] != got.location[got.parent[lvl]]]
                   for lvl in got.levels[1:]]
        assert any(np.any(np.diff(new) < 0) for new in entered)


def _validate_tree_by_loops(tree):
    """Reference oracle for validate_tree: every check as a per-node or per-leaf loop.

    It reads ``tree.nodes`` only, and finds the children, levels, leaves and
    descendant points from the parent pointers itself.
    """
    errors: list[str] = []
    warnings: list[str] = []
    space = tree.space
    nodes = dict(sorted(tree.nodes.items()))
    kids = {nid: [] for nid in nodes}
    levels: dict[int, list[int]] = {}
    for nid, nd in nodes.items():
        levels.setdefault(nd.depth, []).append(nid)
        if nd.parent in kids:
            kids[nd.parent].append(nid)
    max_depth = max(levels)

    roots = levels.get(0, [])
    if len(roots) != 1:
        errors.append("tree must have exactly one root at depth 0")
    if roots and nodes[roots[0]].parent is not None:
        errors.append("root must have no parent")

    for nid, nd in nodes.items():
        if nd.parent is None:
            continue
        parent = nodes.get(nd.parent)
        if parent is None:
            errors.append(f"node {nid} has a dangling parent")
            continue
        if parent.depth != nd.depth - 1:
            errors.append(f"node {nid}: parent depth {parent.depth} != {nd.depth - 1}")
        if not nd.pruned and not parent.pruned and nd.depth > 0:
            d = space.distance(nd.location, parent.location)
            bound = tree.epsilon(nd.depth - 1)
            if d > bound * (1 + _REL_TOL):
                errors.append(f"node {nid}: parent distance {d:g} exceeds eps({nd.depth - 1})={bound:g}")

    capacity_flags: list[int] = []
    for h in range(max_depth + 1):
        locs = [nodes[nid].location for nid in levels.get(h, []) if not nodes[nid].pruned]
        if len(locs) > 1:
            D = space.pairwise(np.array(locs))
            vals = D[D > 0]
            if vals.size and vals.min() < tree.epsilon(h) * (1 - _REL_TOL):
                errors.append(f"depth {h}: separation {vals.min():g} below eps={tree.epsilon(h):g}")
        budget = tree.capacity(h)
        if budget <= _EXP_OVERFLOW and len(locs) > math.exp(budget) * (1 + _REL_TOL):
            capacity_flags.append(h)

    if tree.pruned:
        for nid, nd in nodes.items():
            nonpruned = [c for c in kids[nid] if not nodes[c].pruned]
            cap = tree.child_capacity(nd.depth)
            if not math.isinf(cap) and len(nonpruned) > math.floor(cap):
                errors.append(f"node {nid}: {len(nonpruned)} children exceed capacity {cap:g}")
        if tree.restart_count > restart_limit(space.n):
            errors.append(f"restart count {tree.restart_count} exceeds the cap")

    leaves = [nid for nid in nodes if not kids[nid]]
    leaf_locs = sorted(nodes[nid].location for nid in leaves)
    if leaf_locs != list(range(space.n)):
        errors.append("leaves do not biject with the point set")
    if not tree.pruned:
        if any(nodes[nid].depth != max_depth for nid in leaves):
            errors.append("unpruned tree must carry all leaves at the deepest level")

    chains = {}
    for leaf in leaves:
        chain, nd = [], nodes[leaf]
        while nd is not None:           # stops below a dangling parent
            chain.append(nd)
            nd = nodes.get(nd.parent)
        chains[leaf] = chain[::-1]
    below = {nid: [] for nid in nodes}
    for leaf, chain in chains.items():
        for nd in chain:
            below[nd.node_id].append(nodes[leaf].location)
    for nid, nd in nodes.items():
        expect = float(space.row(nd.location)[below[nid]].max())
        if not abs(nd.radius - expect) <= _REL_TOL * max(1.0, expect):
            errors.append(f"node {nid}: stored radius {nd.radius:g} != {expect:g}")

    for leaf, chain in chains.items():
        prev = None
        for nd in chain:
            if nd.pruned:
                continue
            if prev is not None and not nd.radius <= prev * (1 + _REL_TOL):
                warnings.append(f"radius grows along path at node {nd.node_id}")
                break
            prev = nd.radius

    return TreeValidation(not errors, errors, warnings, capacity_flags)


class TestBuildTreeChecks:
    """``build_tree`` hands out only trees that ``validate_tree`` passes."""

    @pytest.mark.parametrize("schedule", ["geometric", "entropy"])
    def test_failing_validation_is_an_internal_error(self, monkeypatch, schedule):
        monkeypatch.setattr(chaining, "validate_tree",
                            lambda tree: TreeValidation(False, ["node 3: broken"], [], []))
        space = FiniteMetricSpace.from_coordinates(np.arange(8.0))
        with pytest.raises(InternalError, match="tree validation failed: node 3: broken"):
            build_tree(space, schedule)

    def test_every_built_tree_is_validated(self, monkeypatch):
        seen = []
        real = chaining.validate_tree
        monkeypatch.setattr(chaining, "validate_tree", lambda tree: seen.append(tree) or real(tree))
        tree = build_tree(make_star(20), "geometric", 1, 1.0)
        assert seen == [tree]


class TestValidateCorruptedTrees:
    """Each hard check fires on a tree corrupted in one place, and names it."""

    @pytest.fixture
    def line8(self):
        # root 0 at point 0; depth 1: nodes 1, 2, 3 at points 0, 3, 6 (eps 1.75);
        # depth 2: leaves 4..11, under node 1 (4, 7), node 2 (5, 8, 9), node 3 (6, 10, 11)
        tree = build_forward(FiniteMetricSpace.from_coordinates(np.arange(8.0)))
        assert validate_tree(tree).ok
        return tree

    @pytest.fixture
    def star50(self):
        # root 0 keeps seven children; pruned node 51 at depth 1 holds the rest
        tree = prune_backward(build_forward(make_star(50)), 1.0)
        assert validate_tree(tree).ok and tree.nodes[51].pruned
        return tree

    @staticmethod
    def _errors(tree):
        check = validate_tree(tree)
        assert not check.ok and check == _validate_tree_by_loops(tree)
        return check.errors

    def test_root(self, line8):
        line8.parent[1], line8.depth[1] = -1, 0
        assert "tree must have exactly one root at depth 0" in self._errors(line8)

    def test_root_parent(self, line8):
        line8.parent[0] = 99
        assert "root must have no parent" in self._errors(line8)

    def test_root_on_a_cycle(self, star50):
        # every node is on or below the cycle 0 -> 51 -> 0, so none is walked;
        # the loop oracle would walk the cycle forever
        star50.parent[0] = 51
        check = validate_tree(star50)
        assert check.errors[:2] == ["root must have no parent", "node 0: parent depth 1 != -1"]

    def test_root_under_its_child(self, line8):
        # the cycle 0 -> 3 -> 0: the root has a live parent, but no eps(-1) is asked
        # for; the loop oracle would walk the cycle forever
        line8.parent[0] = 3
        check = validate_tree(line8)
        assert check.errors[:2] == ["root must have no parent", "node 0: parent depth 1 != -1"]

    def test_second_top_with_a_parent(self, line8):
        line8.depth[5] = 0
        errors = self._errors(line8)
        assert "tree must have exactly one root at depth 0" in errors
        assert "node 5: parent depth 1 != -1" in errors

    def test_dangling_parent(self, line8):
        line8.parent[7] = 99
        assert "node 7 has a dangling parent" in self._errors(line8)

    def test_dead_parent(self):
        # pruning drops node 8 at depth 1 and keeps its id as a gap
        tree = _six_clusters_tree()
        assert 8 not in tree.nodes and 8 < len(tree.parent)
        tree.parent[20] = 8
        assert "node 20 has a dangling parent" in self._errors(tree)

    def test_parent_depth(self, line8):
        line8.parent[7] = 0
        assert "node 7: parent depth 0 != 1" in self._errors(line8)

    def test_parent_distance(self, line8):
        line8.parent[11] = 1
        assert "node 11: parent distance 7 exceeds eps(1)=1.75" in self._errors(line8)

    def test_separation(self, line8):
        line8.location[2] = 1
        assert "depth 1: separation 1 below eps=1.75" in self._errors(line8)

    def test_child_cap(self, star50):
        star50.is_pruned[51] = False
        assert "node 0: 8 children exceed capacity 7.38906" in self._errors(star50)

    def test_restart_cap(self, star50):
        star50.restart_count = 4
        assert "restart count 4 exceeds the cap" in self._errors(star50)

    def test_leaf_bijection(self, line8):
        line8.location[7] = 0
        assert "leaves do not biject with the point set" in self._errors(line8)

    def test_unpruned_leaf_depth(self, line8):
        line8.parent[[4, 7]] = 2      # node 1 is left without children at depth 1
        assert ("unpruned tree must carry all leaves at the deepest level"
                in self._errors(line8))

    def test_radius(self, line8):
        line8.radius[2] = 5.0
        assert "node 2: stored radius 5 != 1" in self._errors(line8)

    @pytest.mark.parametrize("nid, expect", [(2, 1), (0, 7)])
    def test_nan_radius(self, line8, nid, expect):
        line8.radius[nid] = math.nan
        assert f"node {nid}: stored radius nan != {expect}" in self._errors(line8)

    def test_monotonicity_warning_once_per_leaf(self, line8):
        line8.radius[0] = 0.5
        check = validate_tree(line8)
        assert check == _validate_tree_by_loops(line8)
        assert check.errors == ["node 0: stored radius 0.5 != 7"]
        # leaves 4..11 in id order; each reports the depth-1 node above it
        assert check.warnings == [f"radius grows along path at node {nid}"
                                  for nid in (1, 2, 3, 1, 2, 2, 3, 3)]

    def test_capacity_flag_is_not_an_error(self):
        # 64 points at mutual distance one all enter at depth 1, over exp(n_1) = 7.4
        tree = build_forward(make_star(64))
        check = validate_tree(tree)
        assert check == _validate_tree_by_loops(tree)
        assert check.ok and check.errors == [] and check.warnings == []
        assert check.capacity_flags == [1]


def _subtree(tree, nid):
    """Node ids reachable from nid through child lists, nid included."""
    out, stack = set(), [nid]
    while stack:
        k = stack.pop()
        out.add(k)
        stack.extend(tree.children(k).tolist())
    return out


_CORRUPTIONS = ("location", "dangling", "parent_depth", "parent_far", "radius",
                "pruned", "children", "restarts")


@st.composite
def _corrupted_trees(draw, kind):
    """A tree from the TestTreeProperties strategies with one column of one node corrupted.

    Parents are only ever re-pointed outside the node's own subtree: on a
    parent cycle the loop oracle would walk forever.  Child lists are
    derived from the parent column, so the ``children`` kind re-points
    parents too: it empties a node, or hands it another node's child.
    """
    tree = build_tree(draw(_small_spaces()), draw(st.sampled_from(["geometric", "entropy"])),
                      draw(st.sampled_from([0, 1])), draw(st.sampled_from([0.5, 2.0])))
    nids = sorted(tree.nodes)
    # pruned nodes, and the nodes right below them, are rare: draw them on purpose
    under = {"pruned": lambda k: tree.is_pruned[k],
             "radius": lambda k: tree.parent[k] >= 0 and tree.is_pruned[tree.parent[k]]}.get(kind)
    pool = [k for k in nids if under(k)] if under else []
    if not pool or draw(st.booleans()):
        pool = tree.levels[draw(st.integers(0, tree.max_depth))].tolist()
    k = draw(st.sampled_from(pool))
    depth = tree.depth[k]
    outside = [j for j in nids if j not in _subtree(tree, k)]
    if kind == "location":
        held = set(tree.location[tree.levels[depth]].tolist())
        absent = [p for p in range(tree.space.n) if p not in held]
        tree.location[k] = draw(st.sampled_from(absent) if absent and draw(st.booleans())
                                else st.integers(0, tree.space.n - 1))
    elif kind == "dangling":
        # a dead id, an id past the end, or a negative id other than -1
        gone = np.flatnonzero(~tree.alive).tolist()
        tree.parent[k] = draw(st.sampled_from(gone + [nids[-1] + 1, nids[-1] + 3, -2]))
    elif kind == "parent_depth":
        wrong = [j for j in outside if tree.depth[j] != depth - 1]
        if wrong:
            tree.parent[k] = draw(st.sampled_from(wrong))
    elif kind == "parent_far":
        level = [j for j in outside if tree.depth[j] == depth - 1]
        if level:
            row = tree.space.row(tree.location[k])
            tree.parent[k] = max(level, key=lambda j: (row[tree.location[j]], j))
    elif kind == "radius":
        # around the radius that monotonicity compares with: the nearest
        # non-pruned ancestor's
        up = tree.parent[k]
        while up >= 0 and tree.is_pruned[up]:
            up = tree.parent[up]
        ref = tree.radius[k] if up < 0 else tree.radius[up]
        tree.radius[k] = draw(st.one_of(
            st.floats(0.0, 8.0), st.just(math.nan),
            st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 1e-8, 2.0]).map(
                lambda f: f * ref)))
    elif kind == "pruned":
        tree.is_pruned[k] = not tree.is_pruned[k]
    elif kind == "children":
        same = [j for j in nids if tree.depth[j] == depth and j != k]
        lower = [j for j in nids if tree.depth[j] == depth + 1 and tree.parent[j] != k]
        if same and (not lower or draw(st.booleans())):
            tree.parent[tree.children(k)] = draw(st.sampled_from(same))
        elif lower:
            tree.parent[draw(st.sampled_from(lower))] = k
    else:
        tree.restart_count = draw(st.integers(0, 6))
    return tree


def _six_clusters_tree():
    """Twelve clusters at +-e_i in six dimensions, pruned at u=1.

    The root's thirteen children overflow its cap of seven, so the last
    node of depth 1 is a pruned node holding five of the clusters.
    """
    offsets = np.array([[0, 0], [0.125, 0], [0, 0.125], [0.03125, 0.0625]])
    sp = FiniteMetricSpace.from_coordinates(
        [a + np.pad(o, (0, 4)) for a in np.vstack([np.eye(6), -np.eye(6)]) for o in offsets])
    tree = build_tree(sp, "geometric", 1, 1.0)
    assert tree.nodes[tree.levels[1][-1]].pruned
    return tree


def _cell_excess_by_gathers(tree, paths, nodes):
    """Reference oracle for _cell_excess: one gather of each node's sorted points."""
    out = np.empty((len(paths), len(nodes)))
    for k, v in enumerate(nodes):
        out[:, k] = paths[:, tree.descendant_points(v)].max(axis=1) - paths[:, tree.location[v]]
    return out


class TestCellExcess:
    """_cell_excess reads each node's slice of the leaf order as the per-node gathers do."""

    @staticmethod
    def _check(tree, paths):
        for nodes in (np.flatnonzero(tree.alive), []):
            assert np.array_equal(_cell_excess(tree, paths, nodes),
                                  _cell_excess_by_gathers(tree, paths, nodes))

    @settings(max_examples=30)
    @given(space=_small_spaces(), schedule=st.sampled_from(["geometric", "entropy"]),
           pruned=st.booleans(), seed=st.integers(0, 2 ** 16), order=st.sampled_from("CF"))
    def test_matches_gathers(self, space, schedule, pruned, seed, order):
        tree = build_forward(space, schedule=schedule)
        if pruned and schedule == "geometric":
            tree = prune_backward(tree, 1.0)
        paths = np.random.default_rng(seed).standard_normal((6, space.n))
        self._check(tree, np.asarray(paths, order=order))

    @pytest.mark.parametrize("name", ["star50", "six-clusters"])
    def test_pruned_node_away_from_its_points(self, name):
        # the pruned node borrows its parent's location, which stays with the
        # parent's self-copy, so none of its points is its location
        tree = (prune_backward(build_forward(make_star(50)), 1.0) if name == "star50"
                else _six_clusters_tree())
        pid = tree.levels[1][-1]
        pts = tree.descendant_points(pid)
        assert tree.is_pruned[pid] and tree.location[pid] not in pts
        paths = sample_paths(tree.space, None, 200, seed=3)
        got = _cell_excess(tree, paths, [pid])[:, 0]
        assert np.array_equal(got, paths[:, pts].max(axis=1) - paths[:, tree.location[pid]])
        assert np.all(got != 0.0)
        self._check(tree, paths)


class TestValidateMatchesLoops:
    """validate_tree's array sweeps report exactly what the per-node loops report."""

    @pytest.mark.parametrize("kind", _CORRUPTIONS)
    def test_single_corruption(self, kind):
        @settings(max_examples=30)
        @given(tree=_corrupted_trees(kind))
        def check(tree):
            assert validate_tree(tree) == _validate_tree_by_loops(tree)

        check()

    @given(tree=_small_spaces().map(lambda sp: prune_backward(build_forward(sp), 1.0)),
           nid=st.integers(0, 10_000), loc=st.integers(0, 10_000))
    def test_pruned_levels_with_moved_location(self, tree, nid, loc):
        # pruned levels are not supersets of the level above, so a moved
        # location may break separation where the carried bound has not looked
        nids = sorted(tree.nodes)
        tree.location[nids[nid % len(nids)]] = loc % tree.space.n
        assert validate_tree(tree) == _validate_tree_by_loops(tree)

    def test_monotonicity_skips_pruned_nodes(self):
        # below a pruned node the radius is compared with the root's, not the
        # pruned node's smaller one
        tree = _six_clusters_tree()
        pruned = tree.levels[1][-1]
        assert tree.radius[pruned] < tree.radius[0]
        child = next(c for c in tree.children(pruned) if not tree.is_pruned[c])
        tree.radius[child] = tree.radius[0]
        check = validate_tree(tree)
        assert check == _validate_tree_by_loops(tree)
        assert f"radius grows along path at node {child}" not in check.warnings
        tree.radius[child] = tree.radius[0] * 1.01
        check = validate_tree(tree)
        assert check == _validate_tree_by_loops(tree)
        assert f"radius grows along path at node {child}" in check.warnings


class TestSeparationGathers:
    """A level's separation is read in full only where the carried bound fails."""

    @staticmethod
    def _square_gathers(monkeypatch, tree):
        calls, seen = [], []
        inner = FiniteMetricSpace.min_positive

        def spy(space, rows, cols=None):
            if seen and seen[-1] is cols:       # a second read of the same level
                calls.append(len(rows))
            seen.append(cols)
            return inner(space, rows, cols)

        with monkeypatch.context() as patch:
            patch.setattr(FiniteMetricSpace, "min_positive", spy)
            return validate_tree(tree), calls

    def test_none_on_valid_trees(self, monkeypatch):
        rng = np.random.default_rng(4)
        for n in (2, 30, 200):
            sp = FiniteMetricSpace.from_coordinates(rng.integers(0, 64, size=(n, 2)) / 64.0)
            for tree in (build_forward(sp), build_tree(sp, "geometric", 1, 1.0),
                         build_forward(sp, schedule="entropy")):
                check, calls = self._square_gathers(monkeypatch, tree)
                assert check.ok and calls == []

    def test_fallback_reports_the_exact_separation(self, monkeypatch):
        tree = _six_clusters_tree()
        sp = tree.space
        # move a node of depth h onto a point that enters one level deeper,
        # next to a location already at depth h
        h = tree.max_depth - 1
        kept = [nid for nid in tree.levels[h] if not tree.nodes[nid].pruned]
        level = {tree.nodes[nid].location for nid in kept}
        p, q = min(((p, q) for p in range(sp.n) if p not in level for q in level),
                   key=lambda pq: (sp.distance(*pq), pq))
        assert 0 < sp.distance(p, q) < tree.epsilon(h)
        a = next(nid for nid in kept if tree.nodes[nid].location != q)
        tree.location[a] = p
        check, calls = self._square_gathers(monkeypatch, tree)
        assert check == _validate_tree_by_loops(tree)
        assert f"depth {h}: separation {sp.distance(p, q):g} below eps={tree.epsilon(h):g}" \
            in check.errors
        assert calls


def _tied_matrix_space():
    """Shortest paths over integer edge weights in 0..3: many ties and zero distances."""
    rng = np.random.default_rng(12)
    W = rng.integers(0, 4, size=(24, 24)).astype(float)
    W = np.triu(W, 1) + np.triu(W, 1).T
    for k in range(24):
        W = np.minimum(W, W[:, [k]] + W[[k], :])
    return FiniteMetricSpace.from_distance_matrix(W)


@pytest.fixture(scope="module")
def fingerprint_trees():
    line8 = FiniteMetricSpace.from_coordinates(np.arange(8.0))
    cloud = FiniteMetricSpace.from_coordinates(
        np.random.default_rng(7).integers(0, 65, size=(300, 2)) / 64.0)
    lattice = np.random.default_rng(19).integers(0, 33, size=(1400, 2)) / 32.0
    lattice = FiniteMetricSpace.from_coordinates(np.concatenate([lattice, lattice[:200]]))
    trees = {"line8": build_forward(line8),
             "lattice1600": build_tree(lattice, "geometric", 1, 2.0),
             "line8-pruned": build_tree(line8, "geometric", 1, 2.0),
             "star100": prune_backward(build_forward(make_star(100)), 1.0),
             "six-clusters": _six_clusters_tree(),
             "tied-matrix": build_tree(_tied_matrix_space(), "geometric", 1, 1.0)}
    for schedule in ("geometric", "entropy"):
        for shift in (0, 1):
            trees[f"cloud300-{schedule}-{shift}"] = build_tree(cloud, schedule, shift, 2.0)
    return trees


# sha256 of (write_tree output, omega tables, candidate sets at every depth)
_FINGERPRINTS = {
    "cloud300-entropy-0": ("14c15c04c0640ee80e2550668ed7f1f274694af24af4e5e02bc1f9e35b3d654b",
                           "8d0151308c2f4511143dbf979fefda29fb58d872cf93820e3d7b03511358fc50",
                           "36ffac8880561fd56eb8ea550bb73e30a0939cb3c6bf3ff5f9c2f0534dbfa8c9"),
    "cloud300-entropy-1": ("a8eab668a129d01eabd04c10810c3886ad1bd9e09923f9ca740e8d4e96aa176c",
                           "76b285b9e3d23ed2f783f8e95e585b91b6bfa07b9c2590f025ad5e09736d2369",
                           "0a7169e1decde6fb40094a0024ab9b88d04ca705453d0d4f7ecc9bcbaf61bdac"),
    "cloud300-geometric-0": ("be027c303181dd767a6ee6fa3bc63fc5e09202443d7755e12042f5ed12962423",
                             "b8202b755ae50dc0591d70f00a9bfbfd6bbb957424835c075917185e7bcc4f00",
                             "36ffac8880561fd56eb8ea550bb73e30a0939cb3c6bf3ff5f9c2f0534dbfa8c9"),
    "cloud300-geometric-1": ("6fc6bdc14a8f3c64d1f3773bca320c4519b825ff6dfd0e4e21f0e3c165a7a3b8",
                             "bc1be679c927611e0d4f2e3bf9c184d2493e997ce0ffe8260c2cd6b64522b5f9",
                             "0614454bbc8280a8f1a7dab02b31392026d2c01914b1d8c9ecca02d231e464ec"),
    "lattice1600": ("4610dcebfb25cad5c3b596911c5ebd5c6ac2098f2ae20a73457ade31d20758e4",
                    "7b2ac728c2ff825210de459f80efce05bbaca14a4f48d218fccef9557699c085",
                    "86562a53551a3db6f8d1261bd35b6773181d605c7a40997e27d159ca5493d7a8"),
    "line8": ("9a33881fbcdc77665b88d54df8cc153132d79af3616ee4483519c1c2260de278",
              "82acfe115e3bfc8901b00d727832a52a8708842bcf3fe88bce0414e97a009159",
              "d4c6901e2e499291dce49bcd1297a94bd4dddb8a2f047a58dde83102a02b9f7f"),
    "line8-pruned": ("4f5b3068575b2119398edab1c9506f457d70b54727f9122065db2a5b215174bc",
                     "82acfe115e3bfc8901b00d727832a52a8708842bcf3fe88bce0414e97a009159",
                     "d4c6901e2e499291dce49bcd1297a94bd4dddb8a2f047a58dde83102a02b9f7f"),
    "six-clusters": ("97f9606ea51f8a89c326fdc19a86bff1cd7c2e58e92f805fb77551163edf823b",
                     "842ca0c495fbf8510211c706477995c180b508866ac846eaa2ee58a3c1242969",
                     "584a15b6fb68caef62124a7b3a5a9f253d2fb6375d107a708c532dd3ccddab86"),
    "star100": ("e44f465702177fcbb5c13c5dbb29c75b7c7932439e1b7de8232a06275439e66e",
                "d26c00ebe768468b6d2fec7cd65c985141dec232a8ddbb9dac777e4f7fddda28",
                "d639e0973d003c445bb7d0a9ace0826638e522bd6abfb3982105afb8baf1213a"),
    "tied-matrix": ("2a3143e1d3f3e03ea2ef78e42c957cd85dd1aec3ad341ae2a19fea32345ffdd3",
                    "d36caff6def56bc5ca4e3055ab19760b56dc97cc5e0ca2010538f353587c5ee8",
                    "37123217e24f33224e820824fe701910618e1d77d7fecf1972eeb4fa540c1823"),
}


class TestTreeFingerprints:
    """Seeded trees serialize, bound and offer candidates byte for byte as pinned."""

    @pytest.mark.parametrize("name", sorted(_FINGERPRINTS))
    def test_pinned_digests(self, tmp_path, fingerprint_trees, name):
        tree = fingerprint_trees[name]
        path = tmp_path / "tree.csv"
        write_tree(tree, str(path))
        omega = hashlib.sha256()
        for model in (SmoothnessModel.gaussian(), SmoothnessModel.sub_gamma(1.5, 0.3),
                      SmoothnessModel.squared_gp(2)):
            for majorized in (False, True):
                omega.update(omega_table(tree, 2.0, 2.0, model, majorized=majorized).tobytes())
        cand = hashlib.sha256()
        for h in range(tree.max_depth + 1):
            cand.update(tree.candidate_locations(h).tobytes())
        got = (hashlib.sha256(path.read_bytes()).hexdigest(), omega.hexdigest(),
               cand.hexdigest())
        assert got == _FINGERPRINTS[name]
