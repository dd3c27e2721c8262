"""Stochastic smoothness of a process: increment tail bounds and confidence levels.

A :class:`SmoothnessModel` tags one of three increment families and supplies
the high-probability bound ``ell_u`` on ``f(x) - f(y)``:

* ``gaussian``:   ell_u = sqrt(2u) * d(x,y)
* ``subgamma``:   ell_u = (c*u + sqrt(2*nu*u)) * d(x,y)
* ``squaredgp``:  a negated sum of N squared centered processes; behaves
  as subgamma(nu=N, c=1), giving ell_u = (u + sqrt(2*u*N)) * d(x,y).  The
  covariance scale enters only through the metric d (see
  :func:`squared_gp_metric`), so the model carries N alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ArgumentError

_ZETA_CUTOFF = 256  # partial-sum length; tail handled by the integral bound


@dataclass(frozen=True)
class SmoothnessModel:
    """Tagged increment-tail family; use the class-method constructors.

    ``subgamma`` reads ``nu`` and ``c`` (finite, nonnegative, not both zero),
    ``squaredgp`` reads ``n_processes`` (at least one), ``gaussian`` neither.
    """

    variant: str                  # "gaussian" | "subgamma" | "squaredgp"
    nu: float = 0.0               # subgamma variance factor
    c: float = 0.0                # subgamma scale factor
    n_processes: int = 1          # squaredgp: number of squared channels

    def __post_init__(self):
        if self.variant not in ("gaussian", "subgamma", "squaredgp"):
            raise ArgumentError(f"unknown smoothness variant {self.variant!r}")
        if self.variant == "subgamma":
            if not (0 <= self.nu < math.inf and 0 <= self.c < math.inf):
                raise ArgumentError("subgamma parameters must be nonnegative and finite")
            if self.nu == 0 and self.c == 0:
                raise ArgumentError("subgamma parameters cannot both be zero")
        if self.variant == "squaredgp":
            if self.n_processes < 1:
                raise ArgumentError("squaredgp needs at least one channel")

    @classmethod
    def gaussian(cls) -> "SmoothnessModel":
        return cls("gaussian")

    @classmethod
    def sub_gamma(cls, nu: float, c: float) -> "SmoothnessModel":
        return cls("subgamma", nu=float(nu), c=float(c))

    @classmethod
    def squared_gp(cls, n_processes: int) -> "SmoothnessModel":
        return cls("squaredgp", n_processes=int(n_processes))


def ell_u(model: SmoothnessModel, u: float, dist: float) -> float:
    """Tail threshold: P[f(x) - f(y) > ell_u] < exp(-u) at distance ``dist``."""
    if not u > 0:
        raise ArgumentError("u must be positive")
    if dist < 0:
        raise ArgumentError("dist must be nonnegative")
    if model.variant == "gaussian":
        return math.sqrt(2.0 * u) * dist
    if model.variant == "subgamma":
        return (model.c * u + math.sqrt(2.0 * model.nu * u)) * dist
    return (u + math.sqrt(2.0 * u * model.n_processes)) * dist


def psi_star_inv(model: SmoothnessModel, u: float, delta: float) -> float:
    """Generalized inverse of the increment log-MGF dual, at level u and distance delta.

    Evaluated through the closed-form upper bounds that define each variant;
    identical to :func:`ell_u` with ``dist=delta``.
    """
    return ell_u(model, u, delta)


def squared_gp_metric(k_xy: float, kappa: float) -> float:
    """Canonical distance of a negated sum of squared processes: 2*sqrt(kappa^2 - k^2)."""
    if not 0 < kappa < math.inf:
        raise ArgumentError(f"kappa must be positive and finite, got {kappa}")
    if not math.isfinite(k_xy):
        raise ArgumentError(f"k(x,y) must be finite, got {k_xy}")
    if abs(k_xy) > kappa + 1e-9:
        raise ArgumentError(f"|k(x,y)|={abs(k_xy)} exceeds kappa={kappa}")
    return 2.0 * math.sqrt(max(kappa * kappa - k_xy * k_xy, 0.0))


@lru_cache(maxsize=128)
def zeta(a: float) -> float:
    """Riemann zeta at ``a > 1`` to absolute error below 1e-10.

    Partial sum to a fixed cutoff plus the integral tail with two
    Euler-Maclaurin correction terms; the first omitted term bounds the
    error and is far below 1e-10 for every a > 1 at this cutoff.
    """
    a = float(a)
    if a <= 1.0:
        raise ArgumentError("zeta(a) requires a > 1")
    k_max = _ZETA_CUTOFF
    partial = sum(k ** -a for k in range(1, k_max + 1))
    kf = float(k_max)
    tail = kf ** (1.0 - a) / (a - 1.0)
    tail -= 0.5 * kf ** -a
    tail += a / 12.0 * kf ** (-a - 1.0)
    tail -= a * (a + 1.0) * (a + 2.0) / 720.0 * kf ** (-a - 3.0)
    return partial + tail


def confidence_level_u_i(u: float, n_h: float, i: int, a: float) -> float:
    """Per-iteration confidence level: u + n_h + a*log(i) + log(zeta(a))."""
    if not u > 0:
        raise ArgumentError("u must be positive")
    if n_h < 0:
        raise ArgumentError("n_h must be nonnegative")
    if i < 1:
        raise ArgumentError("i must be a positive integer")
    if a <= 1:
        raise ArgumentError("a must exceed 1")
    return u + n_h + a * math.log(i) + math.log(zeta(a))
