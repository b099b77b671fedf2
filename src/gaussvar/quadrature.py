"""Numerical integration against exp(-r^2) dmu on a chart.

The measure-carrying factor exp(-r^2) couples all parameters through
r^2 = |x(u)|^2, so it is kept in the integrand; the per-dimension rules
discretize plain Lebesgue measure on a truncated box:

* unbounded dimensions -- Gauss-Legendre panels on [lo, 0] and [0, hi],
  where [lo, hi] is solved from radial_sq <= R^2 for a truncation radius R
  chosen from the tail of the majorant series C * sum (r+1)^{m+l} e^{-r^2}.
  Splitting at 0 keeps r^m smooth on each panel for odd m.
* bounded dimensions -- a single Gauss-Legendre rule,
* periodic dimensions -- the uniform trapezoidal rule on [0, 2*pi), exact
  for trigonometric polynomials of degree < nodes/2.

:func:`discretize` samples a chart on a rule once -- the embedded points
X, r^2 = |X|^2 and the measure weights dmu = rule weights x density -- and
every integral, Gram matrix and projection works from that sample.
Integrands are functions of the ambient point x, so they are called on X.
Every sum runs in a fixed order, over the nodes or over node blocks of a
fixed size, so every result is reproducible bit for bit for a fixed rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyring import squared_norms
from .variety import GrowthEstimate, VarietyChart, solve_param_bound

__all__ = [
    "QuadratureError",
    "DimRule",
    "QuadRule",
    "Discretization",
    "MomentTable",
    "IntegrabilityScan",
    "build_rule",
    "discretize",
    "integrate",
    "gaussian_moment",
    "moment_table",
    "tail_budget",
    "choose_truncation",
    "integrability_scan",
    "shell_moment_sum",
    "DEFAULT_NODES",
]

DEFAULT_NODES = {"gauss": 64, "periodic": 64, "bounded": 48}

_TERM_FLOOR = 1e-300

_RULE_KIND = {"unbounded": "gauss", "bounded": "bounded", "periodic": "periodic"}


class QuadratureError(RuntimeError):
    """Raised on invalid rules or non-finite integrand samples."""


@dataclass(frozen=True)
class DimRule:
    """Nodes and plain (Lebesgue) weights on one parameter dimension."""

    kind: str  # "gauss" (truncated unbounded), "bounded", "periodic"
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray


class QuadRule:
    """Tensor-product rule over a chart's parameter domain."""

    __slots__ = ("dims", "truncation_radius", "nodes_per_dim", "points", "weights")

    def __init__(self, dims, truncation_radius: float) -> None:
        dims = tuple(dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "truncation_radius", float(truncation_radius))
        object.__setattr__(
            self, "nodes_per_dim", tuple(d.nodes.size for d in dims)
        )
        mesh = np.meshgrid(*[d.nodes for d in dims], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        w = dims[0].weights
        for d in dims[1:]:
            w = np.multiply.outer(w, d.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.asarray(w).ravel())

    def __setattr__(self, name, value):
        raise AttributeError("QuadRule is immutable")

    def __repr__(self) -> str:
        kinds = ",".join(d.kind for d in self.dims)
        return (f"QuadRule(dims=[{kinds}], R={self.truncation_radius:g}, "
                f"nodes={self.nodes_per_dim})")


def _gauss_legendre(n: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def build_rule(chart: VarietyChart, radius: float, nodes_per_dim=None) -> QuadRule:
    """Construct the tensor rule for a chart truncated at radius ``radius``.

    ``nodes_per_dim`` may be a single int for every dimension, a sequence
    with one entry per dimension, or None for the per-kind defaults
    {gauss: 64, periodic: 64, bounded: 48}.
    """
    d = chart.intrinsic_dim
    if nodes_per_dim is None:
        counts = [None] * d
    elif isinstance(nodes_per_dim, int):
        counts = [nodes_per_dim] * d
    else:
        counts = list(nodes_per_dim)
        if len(counts) != d:
            raise QuadratureError(
                f"nodes_per_dim has {len(counts)} entries for a {d}-parameter chart"
            )
    dims = []
    for dim, dom in enumerate(chart.domains):
        kind = _RULE_KIND[dom.kind]
        n = counts[dim] if counts[dim] is not None else DEFAULT_NODES[kind]
        if not isinstance(n, int) or n < 4:
            raise QuadratureError(f"nodes_per_dim must be integers >= 4, got {n!r}")
        if kind == "gauss":
            lo, hi = solve_param_bound(chart, dim, radius)
            if lo < 0.0 < hi:
                x1, w1 = _gauss_legendre(n // 2, lo, 0.0)
                x2, w2 = _gauss_legendre(n - n // 2, 0.0, hi)
                nodes = np.concatenate([x1, x2])
                weights = np.concatenate([w1, w2])
            else:
                nodes, weights = _gauss_legendre(n, lo, hi)
        elif kind == "bounded":
            lo, hi = dom.lo, dom.hi
            nodes, weights = _gauss_legendre(n, lo, hi)
        else:
            lo, hi = 0.0, 2.0 * math.pi
            nodes = 2.0 * math.pi * np.arange(n) / n
            weights = np.full(n, 2.0 * math.pi / n)
        dims.append(DimRule(kind, lo, hi, nodes, weights))
    return QuadRule(dims, radius)


@dataclass(frozen=True)
class Discretization:
    """A chart sampled once on a rule's nodes.

    ``X`` holds the embedded nodes (N, n), ``r2`` the squared radii |X|^2
    and ``dmu`` the rule weights times the volume density.
    """

    rule: QuadRule
    X: np.ndarray
    r2: np.ndarray
    dmu: np.ndarray

    def weights(self, weight: str = "gauss", scale: float = 1.0) -> np.ndarray:
        """Node weights of e^{-scale * r^2} dmu, or of plain dmu for "none"."""
        if weight == "gauss":
            return self.dmu * np.exp(-scale * self.r2)
        if weight != "none":
            raise ValueError(f"weight must be 'gauss' or 'none', got {weight!r}")
        return self.dmu

    def integrate(self, vals, weight: str = "gauss", scale: float = 1.0):
        """Weighted sum of node values; names the first non-finite node.

        A sum of finite samples that overflows raises as well.
        """
        U = self.rule.points
        W = self.weights(weight, scale)
        vals = np.asarray(vals)
        if vals.shape != (U.shape[0],):
            vals = np.broadcast_to(vals, (U.shape[0],))
        bad = ~np.isfinite(W) | ~np.isfinite(vals)
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise QuadratureError(
                f"non-finite integrand sample at node {i}, parameters {U[i].tolist()}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            total = np.sum(W * vals)
        if not np.isfinite(total):
            raise QuadratureError(f"non-finite integral {total} of finite samples")
        return total


def discretize(chart: VarietyChart, rule: QuadRule) -> Discretization:
    """Sample ``chart`` on the nodes of ``rule``, which must match its domains."""
    kinds = [d.kind for d in rule.dims]
    if kinds != [_RULE_KIND[d.kind] for d in chart.domains]:
        raise QuadratureError(
            f"rule kinds {kinds} do not fit chart domains "
            f"{[d.kind for d in chart.domains]}"
        )
    U = rule.points
    X = chart.embed(U)
    return Discretization(
        rule=rule, X=X, r2=squared_norms(X),
        dmu=rule.weights * chart.volume_density(U),
    )


def integrate(chart: VarietyChart, g, rule: QuadRule, weight: str = "gauss"):
    """Quadrature value of  integral g(x) e^{-r^2} dmu,  or of g(x) dmu for "none".

    ``g`` is a function of the ambient point: a callable on the embedded
    nodes X of shape (N, n), such as a :class:`MultiPoly`, or a scalar
    constant.  Raises :class:`QuadratureError` naming the parameters of the
    first node whose sample is non-finite.
    """
    disc = discretize(chart, rule)
    vals = g(disc.X) if callable(g) else float(g)
    return disc.integrate(vals, weight)


def gaussian_moment(chart: VarietyChart, m: int, rule: QuadRule) -> float:
    """The moment I_m = integral r^m e^{-r^2} dmu over the chart."""
    return moment_table(chart, [m], rule).rows[0][1]


# ------------------------------------------------------------------ tail budget


def tail_budget(C: float, l: int, m: int, R: float) -> float:
    """Tail of the majorant series C * sum_{j >= floor(R)} (j+1)^{m+l} e^{-j^2}.

    Terms are summed until they drop below 1e-300; the term ratio
    ((j+1)/j)^{m+l} e^{-2j-1} vanishes, so this terminates quickly.
    """
    if C <= 0:
        raise ValueError(f"growth constant must be positive, got {C}")
    if R < 1:
        raise ValueError(f"cutoff radius must be >= 1, got {R}")
    j = int(math.floor(R))
    total = 0.0
    while True:
        term = C * math.exp((m + l) * math.log(j + 1.0) - float(j) * j)
        total += term
        j += 1
        if term < _TERM_FLOOR or j > 10 ** 6:
            break
    return total


def choose_truncation(growth: GrowthEstimate, m_max: int, eps: float = 1e-12) -> int:
    """Smallest integer R >= 2 whose tail budget is at most ``eps``."""
    if growth is None:
        raise ValueError("growth estimate missing")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    for R in range(2, 301):
        if tail_budget(growth.C, growth.l, m_max, R) <= eps:
            return R
    raise QuadratureError(
        f"no truncation radius up to 300 meets eps={eps:g} "
        f"(C={growth.C:g}, l={growth.l}, m_max={m_max})"
    )


# ------------------------------------------------------------------ moment tables


@dataclass(frozen=True)
class MomentTable:
    """Moments I_m with their tail budgets for one chart and rule."""

    rows: tuple  # (m, I_m, tail_bound)
    R: float
    nodes: tuple

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("m,I_m,tail_bound,R,nodes\n")
            nodes_s = " ".join(str(n) for n in self.nodes)
            for m, value, bound in self.rows:
                fh.write(
                    f"{m},{value:.17g},{bound:.17g},{self.R:.17g},{nodes_s}\n"
                )


def moment_table(chart: VarietyChart, m_values, rule: QuadRule,
                 growth: GrowthEstimate | None = None) -> MomentTable:
    """Compute I_m for each m, recording the tail budget when growth is known."""
    disc = discretize(chart, rule)
    r2 = disc.r2
    rows = []
    for m in m_values:
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")
        vals = r2 ** (m // 2) if m % 2 == 0 else r2 ** (m / 2.0)
        value = float(disc.integrate(vals))
        if growth is not None:
            bound = tail_budget(growth.C, growth.l, m, rule.truncation_radius)
        else:
            bound = float("nan")
        rows.append((int(m), value, bound))
    return MomentTable(rows=tuple(rows), R=rule.truncation_radius, nodes=rule.nodes_per_dim)


# ------------------------------------------------------------------ integrability


@dataclass(frozen=True)
class IntegrabilityScan:
    """|| e^{alpha r^2} ||^2 under refinement of the truncation radius."""

    radii: tuple
    values: tuple
    divergent: bool

    @property
    def final_rel_change(self) -> float:
        a, b = self.values[-2], self.values[-1]
        return abs(b - a) / abs(b)


def integrability_scan(chart: VarietyChart, alpha: float,
                       radii=tuple(range(3, 13))) -> IntegrabilityScan:
    """Track the squared norm of e^{alpha r^2} as the cutoff radius grows.

    The integrand e^{(2 alpha - 1) r^2} has finite mass exactly for
    alpha < 1/2; divergence is declared when the value grows by more than
    a factor of 10 across three successive radius increments.
    """
    radii = tuple(int(R) for R in radii)
    if len(radii) < 4:
        raise ValueError("need at least 4 radii to judge divergence")
    values = []
    for R in radii:
        disc = discretize(chart, build_rule(chart, R))
        values.append(float(disc.integrate(np.exp(2.0 * alpha * disc.r2))))
    divergent = any(
        values[i + 3] > 10.0 * values[i] for i in range(len(values) - 3)
    )
    return IntegrabilityScan(radii=radii, values=tuple(values), divergent=divergent)


# ------------------------------------------------------------------ shell sums


def shell_moment_sum(chart: VarietyChart, m: int, rule: QuadRule):
    """Moment I_m re-summed over the integer shells B_{j+1} - B_j.

    Returns (per-shell contributions, their total).  The shells partition
    the nodes, so the total must agree with the direct moment up to
    summation reordering.
    """
    disc = discretize(chart, rule)
    r = np.sqrt(disc.r2)
    vals = disc.weights() * r ** m
    shell_idx = np.floor(r).astype(int)
    j_max = int(shell_idx.max())
    shells = np.array(
        [np.sum(vals[shell_idx == j]) for j in range(j_max + 1)]
    )
    return shells, float(np.sum(shells))
