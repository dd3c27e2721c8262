"""Experiment orchestration: config parsing, space generators, Monte Carlo
validation suites and CSV reporting.

Validation claims are binomial: a claim passes when the empirical violation
rate stays within three (null) standard errors of its theoretical bound.
Replicates draw from a splittable seed sequence ``(seed_base, replicate,
stream)`` so results cannot depend on execution order.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bandit import (OptimizerConfig, RegretRecord, regret_bound_rhs, run_gp_ucb,
                     run_squared_gp_ucb)
from .chaining import (ChainingTree, _cell_excess, build_tree, lower_bound_functional,
                       omega_table, phi)
from .errors import ArgumentError, ParseError, is_int
from .gp import (Kernel, _parse_spec, c_eta, canonical_metric_space, parse_kernel,
                 sample_paths, squared_gaussian_interval, squared_gaussian_outside_prob)
from .metric import FiniteMetricSpace, _check_budget, _read_space_file, _spans
from .smoothness import SmoothnessModel

_TOL = 1e-12


# -- spaces -------------------------------------------------------------------

def make_grid(dim: int, per_dim: int, extent: float = 1.0) -> np.ndarray:
    """Regular grid coordinates in lexicographic order, shape (per_dim^dim, dim).

    Counted bytes: the coordinates, the axis and 2 KiB for views and ``linspace``'s
    temporaries; in Python ints, the exponent capped at 64."""
    if not (is_int(dim) and is_int(per_dim)) or dim < 1 or per_dim < 1:
        raise ArgumentError("grid needs integers dim >= 1 and per_dim >= 1")
    dim, per_dim = int(dim), int(per_dim)
    points = per_dim ** min(dim, 64)
    _check_budget(8 * dim * points + 8 * per_dim + 2048, f"grid:dim={dim},per_dim={per_dim}")
    axis = np.linspace(0.0, extent, per_dim)
    out = np.empty((points, dim))
    for k in range(dim):
        out[:, k].reshape(per_dim ** k, per_dim, -1)[...] = axis[:, None]
    return out


def make_line(n: int) -> np.ndarray:
    """Integer-spaced points on the line, shape (n, 1)."""
    if not is_int(n) or n < 1:
        raise ArgumentError("line needs an integer n >= 1")
    _check_budget(8 * int(n), f"line:n={n}")
    return np.arange(n, dtype=float)[:, None]


def make_star(n: int) -> FiniteMetricSpace:
    """n points at unit distance from each other (forces heavy pruning); three n×n arrays."""
    if not is_int(n) or n < 1:
        raise ArgumentError("star needs an integer n >= 1")
    _check_budget(24 * int(n) ** 2, f"star:n={n}")
    D = np.ones((n, n)) - np.eye(n)
    return FiniteMetricSpace.from_distance_matrix(D)


def make_ellipsoid(axes: list[float]) -> np.ndarray:
    """Origin plus the +/- semi-axis extremes of an ellipsoid, shape (2D+1, D)."""
    if not axes or any(a <= 0 for a in axes):
        raise ArgumentError("ellipsoid needs positive semi-axes")
    dim = len(axes)
    _check_budget(8 * (2 * dim + 1) * dim, f"an ellipsoid with {dim} axes")
    pts = np.zeros((2 * dim + 1, dim))
    i = np.arange(dim)
    pts[2 * i + 1, i] = axes
    pts[2 * i + 2, i] = np.negative(axes)
    return pts


_SPACE_SPECS = {"grid": {"dim": 1, "per_dim": 16, "extent": 1.0},
                "line": {"n": 16},
                "star": {"n": 16},
                "ellipsoid": {"axes": (1.0,)}}
# each generator takes its spec's options by name
_GENERATORS = {"grid": make_grid, "line": make_line, "star": make_star,
               "ellipsoid": make_ellipsoid}


def _file_ref(spec: str) -> str | None:
    """The stripped path of a ``file:<path>`` spec, which must not be blank; else None."""
    kind, _, rest = spec.partition(":")
    if kind.strip() == "file" and not rest.strip():
        raise ArgumentError("file spec needs a path")
    return rest.strip() if kind.strip() == "file" else None


def space_from_spec(spec: str, kernel: Kernel | None = None) -> FiniteMetricSpace:
    """Build a space from a generator spec or a file reference.

    Forms: ``grid:dim=1,per_dim=100,extent=1.0``, ``line:n=5``,
    ``star:n=64``, ``ellipsoid:axes=1.0:0.5:0.25``, ``file:<path>``.
    Options left out take the defaults in ``_SPACE_SPECS``; an unknown one
    is an error, and blanks around a file path are dropped.  Every source
    of coordinates (the grid, line and ellipsoid generators and a point
    cloud file, read once) takes one metric: the kernel's canonical process
    metric when a kernel is supplied, the Euclidean one otherwise, and its
    space is built once.  A star and a distance-matrix file are their
    matrix's space.
    """
    path = _file_ref(spec)
    if path is None:
        head, opts = _parse_spec(spec, _SPACE_SPECS)
        made = _GENERATORS[head](**opts)
    else:
        made, cloud = _read_space_file(path)
        if not cloud:
            made = FiniteMetricSpace.from_distance_matrix(made)
    if isinstance(made, FiniteMetricSpace):      # a star or a distance-matrix file
        return made
    if kernel is not None:
        return canonical_metric_space(kernel, made)
    return FiniteMetricSpace.from_coordinates(made)


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig(OptimizerConfig):
    """Parsed experiment description: the loop settings of :class:`OptimizerConfig`
    plus what to run them on; see :func:`parse_config` for the format."""

    space: str = "line:n=16"
    kernel: str = "se:ls=1.0"
    model: str = "gaussian"
    replicates: int = 1
    seed_base: int = 0
    trials: int = 1000
    out_dir: str = "."

    def __post_init__(self):
        super().__post_init__()
        for name, low in (("replicates", 1), ("trials", 1), ("seed_base", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ArgumentError(f"{name} must be an integer of at least {low}")

    def build_kernel(self) -> Kernel:
        return parse_kernel(self.kernel)

    def build_space(self, canonical: bool = True) -> FiniteMetricSpace:
        kernel = self.build_kernel() if canonical else None
        return space_from_spec(self.space, kernel=kernel)

    def build_model(self) -> SmoothnessModel:
        variant, opts = _parse_spec(self.model, _MODEL_SPECS)
        return SmoothnessModel(variant, n_processes=opts.pop("n", 1), **opts)


_MODEL_SPECS = {"gaussian": {},
                "subgamma": {"nu": 1.0, "c": 0.0},
                "squaredgp": {"n": 1}}

# key -> value parser, read off the ExperimentConfig defaults
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_config(path: str) -> ExperimentConfig:
    """Parse the line-oriented ``key = value`` config format.

    Empty lines and lines starting with ``#`` are skipped; unknown keys are
    hard errors carrying the line number.  An empty file yields all
    defaults.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for num, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ParseError(f"expected 'key = value', got {line!r}", line=num)
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_TYPES:
                raise ParseError(f"unknown key {key!r}", line=num)
            try:
                values[key] = _CONFIG_TYPES[key](val)
            except ValueError as exc:
                raise ParseError(f"bad value for {key!r}: {val!r}", line=num) from exc
    cfg = ExperimentConfig(**values)
    ref = _file_ref(cfg.space)
    if ref is not None and not os.path.exists(ref):
        raise ArgumentError(f"referenced space file does not exist: {ref}")
    return cfg


# -- validation reports -------------------------------------------------------

@dataclass(frozen=True)
class ValidationClaim:
    """One Monte Carlo claim row; ``kind`` selects the pass rule."""

    claim: str
    trials: int
    violations: int
    rate: float
    bound: float
    se: float
    kind: str = "tail"          # "tail": rate <= bound + 3 se; "match": |rate-bound| <= 3 se
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.kind == "match":
            return abs(self.rate - self.bound) <= 3.0 * self.se + _TOL
        return self.rate <= self.bound + 3.0 * self.se + _TOL


def tail_claim(claim: str, trials: int, violations: int, bound: float,
               note: str = "") -> ValidationClaim:
    rate = violations / trials if trials else 0.0
    se = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials) if trials else 0.0
    return ValidationClaim(claim, trials, violations, rate, bound, se, "tail", note)


def match_claim(claim: str, trials: int, rate: float, exact: float,
                note: str = "") -> ValidationClaim:
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / trials) if trials else 0.0
    return ValidationClaim(claim, trials, int(round(rate * trials)), rate, exact,
                           se, "match", note)


@dataclass
class ValidationReport:
    claims: list[ValidationClaim] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.claims)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("claim,trials,violations,rate,bound,se,pass\n")
            for c in self.claims:
                fh.write(f"{c.claim},{c.trials},{c.violations},{c.rate:.12g},"
                         f"{c.bound:.12g},{c.se:.12g},{int(c.passed)}\n")


# -- Monte Carlo suites -------------------------------------------------------

def validate_upper(config: ExperimentConfig) -> ValidationReport:
    """Check the joint discretization-error bound on sampled paths.

    Counts trials where some node's cell holds a point whose path value
    exceeds the node's own by more than the depth's bound; the frequency must
    stay below ``exp(-u)`` plus three standard errors.  One joint row plus one
    row per depth.  The draw's size is limited only by :func:`sample_paths`.
    """
    kernel = config.build_kernel()
    space = config.build_space(canonical=True)
    tree = build_tree(space, config.schedule, config.shift, config.u)
    model = config.build_model()
    omega_vals = omega_table(tree, config.u, config.a, model)
    paths = sample_paths(space, kernel, config.trials, [config.seed_base, 0])

    depth_viol = np.zeros((tree.max_depth + 1, config.trials), dtype=bool)
    for v in np.flatnonzero(tree.alive).tolist():    # one node at a time: column-sized temporaries
        h = tree.depth[v]
        depth_viol[h] |= _cell_excess(tree, paths, [v])[:, 0] > omega_vals[h] + 1e-9
    bound_p = math.exp(-config.u)
    report = ValidationReport()
    report.claims.append(tail_claim("upper-joint", config.trials,
                                    int(depth_viol.any(axis=0).sum()), bound_p))
    for h, viol in enumerate(depth_viol):
        report.claims.append(tail_claim(f"upper-depth-{h}", config.trials,
                                        int(viol.sum()), bound_p))
    return report


def validate_lower(config: ExperimentConfig) -> ValidationReport:
    """Check pruned-node value certificates and the path-functional ratio.

    At every pruned node with a nonzero value, the path's maximum over the
    node's cell minus its value at the node's location must exceed the value
    except with frequency ``exp(-u_h)``.  Also records the ratio of the root's
    such excess to the radius functional, whose 5th percentile must be
    positive.  The draw's size is limited only by :func:`sample_paths`.
    """
    space = config.build_space(canonical=False)
    if config.schedule != "geometric":
        raise ArgumentError("lower-bound validation needs the geometric schedule")
    tree = build_tree(space, config.schedule, config.shift, config.u)
    paths = sample_paths(space, config.build_kernel(), config.trials, [config.seed_base, 1])

    report = ValidationReport()
    pruned_depths = np.unique(tree.depth[tree.alive & tree.is_pruned]).tolist()
    for h in pruned_depths:
        u_h = tree._u_h(h)
        certified = np.flatnonzero(tree.is_pruned & (tree.depth == h) & (tree.value > 0) & tree.alive)
        viol = (_cell_excess(tree, paths, certified) < tree.value[certified] - 1e-9).any(axis=1)
        note = "" if certified.size else "vacuous: all values zero"
        report.claims.append(tail_claim(f"lower-depth-{h}", config.trials,
                                        int(viol.sum()), math.exp(-u_h), note))

    root = tree.root_id
    denom = lower_bound_functional(tree, root)
    if denom > 0:
        ratios = _cell_excess(tree, paths, [root])[:, 0] / denom
        report.extras["ratio_q05"] = float(np.quantile(ratios, 0.05))
        report.extras["ratio_median"] = float(np.quantile(ratios, 0.5))
        if pruned_depths:
            # the percentile criterion applies to spaces that force pruning;
            # elsewhere the ratio distribution is recorded as information only
            nonpos = int(np.sum(ratios <= 0.0))
            report.claims.append(tail_claim("lower-ratio-positive", config.trials,
                                            nonpos, 0.05,
                                            note="5th percentile of sup/functional must be > 0"))
    return report


def _row_maxima(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """Row maxima of ``(rows, m)`` standard normals, drawn one ``_spans`` piece at a time."""
    return np.concatenate([rng.standard_normal(size=(hi - lo, m)).max(axis=1)
                           for lo, hi in _spans(rows, m)])


_SQ_TAIL_GRID = tuple(itertools.product((0.0, 1.0, 3.0), (0.5, 1.0, 2.0), (1.0, 2.0)))
_MAX_NORMAL_CELLS = ((26, 1.0), (260, 10.0))


def validate_lemmas(config: ExperimentConfig) -> ValidationReport:
    """Monte Carlo checks of the three tail/anti-concentration statements.

    (a) squared-Gaussian intervals on a (mu, sigma, s) grid, with the exact
    erf-identity probability as a cross-check; (b) the maximum of m
    independent normals against its log threshold; (c) the packed-set
    anti-concentration bound, including the vacuous clamped regime.
    """
    rng = np.random.default_rng([config.seed_base, 2])
    trials = config.trials
    report = ValidationReport()

    for mu, sigma, s in _SQ_TAIL_GRID:
        l, up = squared_gaussian_interval(mu, sigma, s)
        draws = rng.normal(mu, sigma, size=trials)
        sq = draws * draws
        outside = int(np.sum((sq <= l * l) | (sq >= up * up)))
        name = f"sq-tail-mu{mu:g}-sig{sigma:g}-s{s:g}"
        report.claims.append(tail_claim(name, trials, outside, math.exp(-s * s)))
        exact = squared_gaussian_outside_prob(mu, sigma, l, up)
        report.claims.append(match_claim(name + "-oracle", trials,
                                         outside / trials, exact))

    rows = max(trials // 10, 1)
    for m, u in _MAX_NORMAL_CELLS:
        thr = math.sqrt(math.log(m / (2.6 * u)))
        below = int(np.sum(_row_maxima(rng, rows, m) < thr))
        report.claims.append(tail_claim(f"max-normal-m{m}-u{u:g}", rows, below, math.exp(-u)))

    # packed construction: base value 0, m-1 unit normals at mutual spread sqrt(2);
    # the base point itself is in the set, so each maximum is at least 0
    m, u = 200, 1.0
    alpha, delta = math.sqrt(2.0), 1.0
    below = int(np.sum(np.maximum(_row_maxima(rng, rows, m - 1), 0.0) < phi(alpha, delta, m, u)))
    report.claims.append(tail_claim(f"packed-max-m{m}-u{u:g}", rows, below, math.exp(-u)))
    below = int(np.sum(np.maximum(_row_maxima(rng, rows, 2), 0.0) < phi(alpha, delta, 3, 1.0)))
    report.claims.append(tail_claim("packed-max-vacuous-m3-u1", rows, below, math.exp(-1.0),
                                    note="vacuous: threshold clamps to zero"))
    return report


# -- experiment driver --------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> dict[str, str]:
    """Run the configured bandit over all replicates and write the file set.

    Produces one regret CSV per replicate, an aggregate CSV with quartiles
    of cumulative regret, simple regret and the per-step bound, and a
    validation CSV with the regret-bound frequency and the deterministic
    variance-information inequality.  Partial outputs are removed if the
    run fails.  Returns the mapping of logical names to file paths.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _run_experiment_inner(config, out_dir, written)
    except Exception:
        for p in written:
            try:
                p.unlink()
            except OSError:
                pass
        raise


def run_replicates(config: ExperimentConfig
                   ) -> tuple[list[RegretRecord], ChainingTree, SmoothnessModel]:
    """Run every replicate of the configured bandit; the records, the tree and the model.

    The space is the kernel's canonical one (the Euclidean one under the
    squared model), and one without coordinates is refused before any draw.
    Replicate r's objective is drawn from the seed ``(seed_base, r, 0)`` and
    its noise from ``(seed_base, r, 1)``; all run through one stacked loop.
    """
    kernel = config.build_kernel()
    model = config.build_model()
    squared = model.variant == "squaredgp"
    space = config.build_space(canonical=not squared)
    if space.coords is None:
        raise ArgumentError("optimization needs a coordinate-backed space")
    tree = build_tree(space, config.schedule, config.shift, config.u)

    n_paths = model.n_processes if squared else 1
    truth = np.stack([sample_paths(space, kernel, n_paths, [config.seed_base, r, 0])
                      for r in range(config.replicates)])
    seeds = [[config.seed_base, r, 1] for r in range(config.replicates)]
    if squared:
        return run_squared_gp_ucb(space, kernel, n_paths, config, truth, seed=seeds,
                                  tree=tree), tree, model
    return run_gp_ucb(space, kernel, config, truth[:, 0], seed=seeds, tree=tree), tree, model


def _run_experiment_inner(config: ExperimentConfig, out_dir: Path,
                          written: list[Path]) -> dict[str, str]:
    records, tree, model = run_replicates(config)
    bounds = [series.per_step for series in regret_bound_rhs(records, tree, model, config)]
    files: dict[str, str] = {}

    def target(name: str, file_name: str) -> str:
        """The path of one output file, listed for removal before it is written."""
        path = out_dir / file_name
        written.append(path)
        files[name] = str(path)
        return str(path)

    for r, record in enumerate(records):
        record.to_csv(target(f"replicate_{r}", f"replicate_{r:04d}.csv"))
    with open(target("aggregate", "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,R_med,R_q25,R_q75,S_med,S_q25,S_q75,B_med,B_q25,B_q75\n")
        if records and len(records[0]):
            R = np.stack([rec.cum_regret for rec in records])
            S = np.stack([rec.simple_regret for rec in records])
            B = np.stack(bounds)
            quarts = np.concatenate([np.quantile(arr, [0.5, 0.25, 0.75], axis=0)
                                     for arr in (R, S, B)])
            for k in range(R.shape[1]):
                fh.write(",".join([f"{k + 1}"] + [f"{v:.12g}" for v in quarts[:, k]])
                         + "\n")

    # both inequalities hold on an empty record: np.all of no comparisons is True
    ceta = c_eta(config.eta2)
    report = ValidationReport()
    report.claims.append(tail_claim(
        "regret-bound-freq", config.replicates,
        sum(not np.all(rec.cum_regret <= b + 1e-9) for rec, b in zip(records, bounds)),
        2.0 * math.exp(-config.u)))
    report.claims.append(tail_claim(
        "variance-info-gain", config.replicates,
        sum(not np.all(rec.sigma_sq_cum <= ceta * rec.info_gain + 1e-9) for rec in records),
        0.0, note="deterministic inequality"))
    report.write_csv(target("validation", "validation.csv"))
    files["all_pass"] = "1" if report.all_pass else "0"
    return files
