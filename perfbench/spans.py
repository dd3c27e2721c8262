"""In-memory span tracer that wraps chainopt's public functions at their import sites.

``harness`` and ``bandit`` import functions by name (``harness.run_gp_ucb``,
``bandit.gram``, ``chaining.greedy_cover`` ...), so a wrapper placed only on
the defining module would never see those calls.  :meth:`Tracer.install`
therefore replaces every reference to a traced function in every loaded
``chainopt`` module, and :meth:`Tracer.uninstall` puts the originals back.

Each span records its name, start, end and parent; a span's self time is
its duration minus the time covered by its child spans.  The spans of one
job share a job number.  Cheap functions (the ``smoothness`` helpers) are
counted, not timed, because a span around them would cost more than they do.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (module, attribute) -> span name.  A dotted attribute names a method.
TIMED = {
    ("metric", "FiniteMetricSpace.__init__"): "metric.space",
    ("metric", "greedy_cover"): "metric.greedy_cover",
    ("chaining", "build_forward"): "chaining.forward",
    ("chaining", "prune_backward"): "chaining.prune",
    ("chaining", "omega_table"): "chaining.omega",
    ("chaining", "validate_tree"): "chaining.validate",
    ("chaining", "write_tree"): "chaining.write",
    ("gp", "canonical_metric_space"): "gp.canonical_space",
    ("gp", "gram"): "gp.gram",
    ("gp", "sample_prior"): "gp.sample",
    ("harness", "sample_paths"): "gp.sample",
    ("gp", "chol_with_jitter"): "gp.chol",
    ("bandit", "run_gp_ucb"): "bandit.loop",
    ("bandit", "run_squared_gp_ucb"): "bandit.loop",
    ("bandit", "regret_bound_rhs"): "bandit.bound",
    ("bandit", "RegretRecord.to_csv"): "bandit.csv",
    ("harness", "run_experiment"): "harness.experiment",
    ("harness", "validate_upper"): "harness.validate_upper",
    ("harness", "validate_lower"): "harness.validate_lower",
    ("harness", "validate_lemmas"): "harness.validate_lemmas",
}
COUNTED = {
    ("smoothness", "confidence_level_u_i"): "smoothness.u_i",
    ("smoothness", "psi_star_inv"): "smoothness.psi",
}
_SPANS = tuple(dict.fromkeys(TIMED.values()))
_TREE_MAKERS = ("chaining.forward", "chaining.prune")

# Counts that must repeat exactly on identical inputs.
EXACT = ("chaining.nodes", "chaining.depth", "chaining.restarts",
         "chaining.pruned_nodes", "bandit.iters", "bandit.refactors")


def tree_shape(tree) -> dict[str, int]:
    """The exact counts that describe a chaining tree."""
    return {"chaining.nodes": len(tree.nodes), "chaining.depth": tree.max_depth,
            "chaining.restarts": tree.restart_count,
            "chaining.pruned_nodes": sum(nd.pruned for nd in tree.nodes.values())}


class Tracer:
    """Records spans and counts for one job at a time while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # job, name, start, end, parent
        self._patches: list[tuple[object, str, object]] = []
        self.reset(0)

    # -- recording -----------------------------------------------------------

    def reset(self, job: int) -> None:
        """Start a new job: clear the per-job aggregates (spans are kept)."""
        self._job = job
        self._stack: list[list] = []        # [name, start, child_time, span index, attempts]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.tree: dict[str, int] | None = None
        self.iters = 0
        self.chol_attempts = 0
        self.chol_first_try = 0

    def _open(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((self._job, name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1, 0])

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, idx, attempts = self._stack.pop()
        dur = end - start
        job, _, _, _, parent = self.spans[idx]
        self.spans[idx] = (job, name, start, end, parent)
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if name == "gp.chol":
            self.chol_attempts += attempts
            self.chol_first_try += attempts == 1

    def _in_loop(self) -> bool:
        return any(entry[0] == "bandit.loop" for entry in self._stack)

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if name in _TREE_MAKERS:
                self.tree = tree_shape(out)
            elif name == "bandit.loop":
                self.iters += len(out)
            return out
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _cholesky(self, fn):
        """numpy's Cholesky: an attempt inside chol_with_jitter, a refactor under the loop."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == "gp.chol":
                self._stack[-1][4] += 1
                return fn(*args, **kwargs)
            if not self._in_loop():
                return fn(*args, **kwargs)
            self.counts["bandit.refactors"] = self.counts.get("bandit.refactors", 0) + 1
            self._open("bandit.refactor")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _solve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._in_loop():
                return fn(*args, **kwargs)
            self._open("bandit.refactor")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every chainopt import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "chainopt" or name.startswith("chainopt.")}
        replace: dict[int, object] = {}
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for (mod, qual), name in table.items():
                owner_name, _, attr = qual.rpartition(".")
                owner = mods["chainopt." + mod]
                if owner_name:
                    cls = getattr(owner, owner_name)
                    self._patch(cls, attr, make(cls.__dict__[attr], name))
                else:
                    fn = getattr(owner, attr)
                    replace[id(fn)] = make(fn, name)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._patch(mod, attr, replace[id(val)])
        self._patch(np.linalg, "cholesky", self._cholesky(np.linalg.cholesky))
        bandit = mods["chainopt.bandit"]
        self._patch(bandit, "solve_triangular", self._solve(bandit.solve_triangular))

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of a ``with`` block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _patch(self, holder, attr, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, old = self._patches.pop()
            setattr(holder, attr, old)

    # -- per-job metrics -----------------------------------------------------

    def fired(self) -> set[str]:
        """Names of the per-layer metrics whose source was reached in this job."""
        out = {span + suffix for span, n in self.calls.items() if n and span in _SPANS
               for suffix in ("_s", "_calls")}
        out.update(name + "_calls" for name in COUNTED.values() if self.counts.get(name, 0))
        if self.tree is not None:
            out.update(self.tree)
        if self.iters:
            out.add("bandit.iters")
        if self.calls.get("bandit.refactor", 0):
            out.update(("bandit.refactor_s", "bandit.refactors"))
        if self.calls.get("gp.chol", 0):
            out.update(("gp.jitter_retries", "gp.chol_first_try_ratio"))
        return out

    def job_metrics(self, files_written: int, bytes_written: int) -> dict[str, float]:
        """Per-layer values of the job just traced: self time and calls of every span,
        the counts, and the files the job wrote."""
        out: dict[str, float] = {}
        for span in _SPANS:
            out[span + "_s"] = self.self_s.get(span, 0.0)
            out[span + "_calls"] = float(self.calls.get(span, 0))
        for name in COUNTED.values():
            out[name + "_calls"] = float(self.counts.get(name, 0))
        for key in ("chaining.nodes", "chaining.depth", "chaining.restarts",
                    "chaining.pruned_nodes"):
            out[key] = float(self.tree[key]) if self.tree else 0.0
        out["bandit.iters"] = float(self.iters)
        out["bandit.refactor_s"] = self.self_s.get("bandit.refactor", 0.0)
        out["bandit.refactors"] = float(self.counts.get("bandit.refactors", 0))
        chol = self.calls.get("gp.chol", 0)
        out["gp.jitter_retries"] = float(self.chol_attempts - chol)
        out["gp.chol_first_try_ratio"] = self.chol_first_try / chol if chol else 0.0
        out["harness.files_written"] = float(files_written)
        out["harness.bytes_written"] = float(bytes_written)
        return out
