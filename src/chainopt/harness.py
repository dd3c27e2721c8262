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

from .bandit import (OptimizerConfig, RegretRecord, regret_bound_rhs,
                     run_gp_ucb, run_squared_gp_ucb)
from .chaining import (build_tree, lower_bound_functional, omega_table, phi,
                       validate_tree)
from .errors import ArgumentError, CapacityError, ParseError
from .gp import (Kernel, c_eta, canonical_metric_space, parse_kernel, sample_paths,
                 squared_gaussian_interval, squared_gaussian_outside_prob)
from .metric import FiniteMetricSpace, load_space
from .smoothness import SmoothnessModel

_TOL = 1e-12


# -- spaces -------------------------------------------------------------------

def make_grid(dim: int, per_dim: int, extent: float = 1.0) -> np.ndarray:
    """Regular grid coordinates in lexicographic order, shape (per_dim^dim, dim)."""
    if dim < 1 or per_dim < 1:
        raise ArgumentError("grid needs dim >= 1 and per_dim >= 1")
    axis = np.linspace(0.0, extent, per_dim)
    return np.array(list(itertools.product(*([axis] * dim))))


def make_line(n: int) -> np.ndarray:
    """Integer-spaced points on the line, shape (n, 1)."""
    if n < 1:
        raise ArgumentError("line needs n >= 1")
    return np.arange(n, dtype=float)[:, None]


def make_star(n: int) -> FiniteMetricSpace:
    """n points at unit distance from each other (forces heavy pruning)."""
    if n < 1:
        raise ArgumentError("star needs n >= 1")
    D = np.ones((n, n)) - np.eye(n)
    return FiniteMetricSpace.from_distance_matrix(D)


def make_ellipsoid(axes: list[float]) -> np.ndarray:
    """Origin plus the +/- semi-axis extremes of an ellipsoid, shape (2D+1, D)."""
    if not axes or any(a <= 0 for a in axes):
        raise ArgumentError("ellipsoid needs positive semi-axes")
    dim = len(axes)
    pts = [np.zeros(dim)]
    for i, a in enumerate(axes):
        for sign in (1.0, -1.0):
            p = np.zeros(dim)
            p[i] = sign * a
            pts.append(p)
    return np.array(pts)


def _parse_kv(rest: str) -> dict[str, str]:
    out = {}
    if not rest:
        return out
    for item in rest.split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise ArgumentError(f"malformed option {item!r}")
        out[key.strip()] = val.strip()
    return out


def _number(raw: str, key: str, kind=float):
    """``kind(raw)`` for option ``key``; a non-numeric value is an ArgumentError."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ArgumentError(f"option {key!r} needs a number, got {raw!r}") from exc


def space_from_spec(spec: str, kernel: Kernel | None = None) -> FiniteMetricSpace:
    """Build a space from a generator spec or a file reference.

    Forms: ``grid:dim=1,per_dim=100,extent=1.0``, ``line:n=5``,
    ``star:n=64``, ``ellipsoid:axes=1.0:0.5:0.25``, ``file:<path>``.
    When a kernel is supplied, coordinate spaces use its canonical process
    metric; otherwise the Euclidean one.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "file":
        if not rest:
            raise ArgumentError("file spec needs a path")
        return load_space(rest)
    if kind == "star":
        opts = _parse_kv(rest)
        return make_star(_number(opts.get("n", "16"), "n", int))
    if kind == "grid":
        opts = _parse_kv(rest)
        coords = make_grid(_number(opts.get("dim", "1"), "dim", int),
                           _number(opts.get("per_dim", "16"), "per_dim", int),
                           _number(opts.get("extent", "1.0"), "extent"))
    elif kind == "line":
        opts = _parse_kv(rest)
        coords = make_line(_number(opts.get("n", "16"), "n", int))
    elif kind == "ellipsoid":
        opts = _parse_kv(rest)
        coords = make_ellipsoid([_number(v, "axes")
                                 for v in opts.get("axes", "1.0").split(":")])
    else:
        raise ArgumentError(f"unknown space spec {spec!r}")
    if kernel is not None:
        return canonical_metric_space(kernel, coords)
    return FiniteMetricSpace.from_coordinates(coords)


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see :func:`parse_config` for the format."""

    space: str = "line:n=16"
    kernel: str = "se:ls=1.0"
    model: str = "gaussian"
    u: float = 2.0
    a: float = 2.0
    eta2: float = 0.01
    t_max: int = 100
    replicates: int = 1
    seed_base: int = 0
    trials: int = 1000
    n_channels: int = 1
    depth_rule: str = "halflog2"
    schedule: str = "geometric"
    shift: int = 1
    out_dir: str = "."

    def __post_init__(self):
        self.optimizer_config()          # checks the loop fields
        if self.replicates < 1:
            raise ArgumentError("replicates must be at least 1")
        if self.trials < 1:
            raise ArgumentError("trials must be at least 1")

    def build_kernel(self) -> Kernel:
        return parse_kernel(self.kernel)

    def build_space(self, canonical: bool = True) -> FiniteMetricSpace:
        kernel = self.build_kernel() if canonical else None
        return space_from_spec(self.space, kernel=kernel)

    def build_model(self) -> SmoothnessModel:
        head, _, rest = self.model.partition(":")
        opts = _parse_kv(rest)
        if head == "gaussian":
            return SmoothnessModel.gaussian()
        if head == "subgamma":
            return SmoothnessModel.sub_gamma(_number(opts.get("nu", "1.0"), "nu"),
                                             _number(opts.get("c", "0.0"), "c"))
        if head == "squaredgp":
            return SmoothnessModel.squared_gp(
                _number(opts.get("n", str(self.n_channels)), "n", int),
                _number(opts.get("kappa", "1.0"), "kappa"))
        raise ArgumentError(f"unknown model spec {self.model!r}")

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(u=self.u, a=self.a, eta2=self.eta2, t_max=self.t_max,
                               depth_rule=self.depth_rule, schedule=self.schedule,
                               shift=self.shift)


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
    if cfg.space.startswith("file:"):
        ref = cfg.space.partition(":")[2]
        if not os.path.exists(ref):
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

    Samples centered paths on the configured space and counts trials where
    some node at some depth sees a descendant exceed it by more than the
    depth's bound; the frequency must stay below ``exp(-u)`` plus three
    standard errors.  Reports one joint row plus one row per depth.
    """
    kernel = config.build_kernel()
    space = config.build_space(canonical=True)
    if space.n > 256:
        raise CapacityError("upper-bound validation limited to 256 points")
    tree = build_tree(space, config.schedule, config.shift, config.u)
    model = config.build_model()
    omega_vals = omega_table(tree, config.u, config.a, model)
    paths = sample_paths(space, kernel, config.trials, [config.seed_base, 0])

    H = tree.max_depth
    depth_viol = np.zeros((H + 1, config.trials), dtype=bool)
    for nid, nd in sorted(tree.nodes.items()):
        desc = tree.descendant_points(nid)
        if desc.size <= 1:
            continue
        bound = float(omega_vals[nd.depth])
        excess = paths[:, desc].max(axis=1) - paths[:, nd.location]
        depth_viol[nd.depth] |= excess > bound + 1e-9
    joint = depth_viol.any(axis=0)
    bound_p = math.exp(-config.u)
    report = ValidationReport()
    report.claims.append(tail_claim("upper-joint", config.trials,
                                    int(joint.sum()), bound_p))
    for h in range(H + 1):
        report.claims.append(tail_claim(f"upper-depth-{h}", config.trials,
                                        int(depth_viol[h].sum()), bound_p))
    return report


def validate_lower(config: ExperimentConfig) -> ValidationReport:
    """Check pruned-node value certificates and the path-functional ratio.

    At every pruned node with a nonzero value, the supremum of the path
    over the node's descendants must exceed the value except with frequency
    ``exp(-u_h)``.  Also records the distribution of the ratio between the
    root supremum and the radius functional; its 5th percentile must be
    positive.
    """
    space = config.build_space(canonical=False)
    if config.schedule != "geometric":
        raise ArgumentError("lower-bound validation needs the geometric schedule")
    tree = build_tree(space, config.schedule, config.shift, config.u)
    kernel = config.build_kernel() if space.coords is not None else None
    paths = sample_paths(space, kernel, config.trials, [config.seed_base, 1])

    report = ValidationReport()
    pruned_depths = sorted({nd.depth for nd in tree.nodes.values() if nd.pruned})
    for h in pruned_depths:
        u_h = config.u + tree.capacity(h) + h * math.log(2.0)
        viol = np.zeros(config.trials, dtype=bool)
        checked = 0
        for nid in tree.levels[h]:
            nd = tree.nodes[nid]
            if not nd.pruned or nd.value <= 0.0:
                continue
            checked += 1
            desc = tree.descendant_points(nid)
            excess = paths[:, desc].max(axis=1) - paths[:, nd.location]
            viol |= excess < nd.value - 1e-9
        note = "" if checked else "vacuous: all values zero"
        report.claims.append(tail_claim(f"lower-depth-{h}", config.trials,
                                        int(viol.sum()), math.exp(-u_h), note))

    root = tree.nodes[tree.root_id]
    denom = lower_bound_functional(tree, root.node_id)
    sup = paths[:, tree.descendant_points(root.node_id)].max(axis=1) - paths[:, root.location]
    ratios = sup / denom if denom > 0 else np.full(config.trials, math.nan)
    if denom > 0:
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

    n3 = max(trials // 10, 1)
    for m, u in _MAX_NORMAL_CELLS:
        thr = math.sqrt(math.log(m / (2.6 * u)))
        maxima = rng.standard_normal(size=(n3, m)).max(axis=1)
        below = int(np.sum(maxima < thr))
        report.claims.append(tail_claim(f"max-normal-m{m}-u{u:g}", n3, below,
                                        math.exp(-u)))

    # packed construction: base value 0, m-1 unit normals at mutual spread sqrt(2)
    m, u = 200, 1.0
    alpha, delta = math.sqrt(2.0), 1.0
    threshold = phi(alpha, delta, m, u)
    n5 = max(trials // 10, 1)
    maxima = rng.standard_normal(size=(n5, m - 1)).max(axis=1)
    maxima = np.maximum(maxima, 0.0)       # the base point itself is in the set
    below = int(np.sum(maxima < threshold))
    report.claims.append(tail_claim(f"packed-max-m{m}-u{u:g}", n5, below,
                                    math.exp(-u)))
    vac = phi(alpha, delta, 3, 1.0)
    report.claims.append(tail_claim("packed-max-vacuous-m3-u1", n5,
                                    int(np.sum(np.maximum(
                                        rng.standard_normal(size=(n5, 2)).max(axis=1),
                                        0.0) < vac)),
                                    math.exp(-1.0),
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


def _run_experiment_inner(config: ExperimentConfig, out_dir: Path,
                          written: list[Path]) -> dict[str, str]:
    kernel = config.build_kernel()
    model = config.build_model()
    squared = model.variant == "squaredgp"
    space = config.build_space(canonical=not squared)
    tree = build_tree(space, config.schedule, config.shift, config.u)
    check = validate_tree(tree)
    if not check.ok:
        raise ArgumentError("tree validation failed: " + "; ".join(check.errors))

    records: list[RegretRecord] = []
    bounds: list[np.ndarray] = []
    bound_ok: list[bool] = []
    var_info_ok: list[bool] = []
    ceta = c_eta(config.eta2)
    files: dict[str, str] = {}
    opt_cfg = config.optimizer_config()
    for r in range(config.replicates):
        if squared:
            truth = sample_paths(space, kernel, model.n_processes,
                                 [config.seed_base, r, 0])
            record = run_squared_gp_ucb(space, kernel, model.n_processes, opt_cfg,
                                        truth, seed=[config.seed_base, r, 1],
                                        tree=tree)
        else:
            truth = sample_paths(space, kernel, 1, [config.seed_base, r, 0])[0]
            record = run_gp_ucb(space, kernel, opt_cfg, truth,
                                seed=[config.seed_base, r, 1], tree=tree)
        series = regret_bound_rhs(record, tree, model, opt_cfg)
        records.append(record)
        bounds.append(series.per_step)
        if len(record):
            bound_ok.append(bool(np.all(record.cum_regret <= series.per_step + 1e-9)))
            var_info_ok.append(bool(np.all(record.sigma_sq_cum
                                           <= ceta * record.info_gain + 1e-9)))
        else:
            bound_ok.append(True)
            var_info_ok.append(True)
        path = out_dir / f"replicate_{r:04d}.csv"
        record.to_csv(str(path))
        written.append(path)
        files[f"replicate_{r}"] = str(path)

    agg_path = out_dir / "aggregate.csv"
    with open(agg_path, "w", encoding="utf-8") as fh:
        fh.write("t,R_med,R_q25,R_q75,S_med,S_q25,S_q75,B_med,B_q25,B_q75\n")
        if records and len(records[0]):
            R = np.stack([rec.cum_regret for rec in records])
            S = np.stack([rec.simple_regret for rec in records])
            B = np.stack(bounds)
            for k in range(R.shape[1]):
                row = [f"{k + 1}"]
                for arr in (R, S, B):
                    col = arr[:, k]
                    row += [f"{np.quantile(col, q):.12g}" for q in (0.5, 0.25, 0.75)]
                fh.write(",".join(row) + "\n")
    written.append(agg_path)
    files["aggregate"] = str(agg_path)

    report = ValidationReport()
    n_rep = config.replicates
    report.claims.append(tail_claim("regret-bound-freq", n_rep,
                                    sum(not ok for ok in bound_ok),
                                    2.0 * math.exp(-config.u)))
    report.claims.append(tail_claim("variance-info-gain", n_rep,
                                    sum(not ok for ok in var_info_ok), 0.0,
                                    note="deterministic inequality"))
    val_path = out_dir / "validation.csv"
    report.write_csv(str(val_path))
    written.append(val_path)
    files["validation"] = str(val_path)
    files["all_pass"] = "1" if report.all_pass else "0"
    return files
