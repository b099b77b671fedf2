"""Numerical integration against exp(-r^2) dmu on a chart.

A rule truncated at a finite radius R discretizes plain Lebesgue measure
on a box; the factor exp(-r^2) dmu, which couples all parameters through
r^2 = |x(u)|^2, is formed at the nodes.  An untruncated rule (R = inf)
carries e^{-r^2} dmu in its weights: R = inf if and only if the weights
carry the measure.  The truncated per-dimension rules of :func:`build_rule`:

* unbounded dimensions -- Gauss-Legendre panels on [lo, 0] and [0, hi],
  where [lo, hi] is solved from radial_sq <= R^2 for a truncation radius R
  chosen from the tail of the majorant series C * sum (r+1)^{m+l} e^{-r^2}.
  Splitting at 0 keeps r^m smooth on each panel for odd m.
* bounded dimensions -- a single Gauss-Legendre rule,
* periodic dimensions -- the uniform trapezoidal rule on [0, 2*pi), exact
  for trigonometric polynomials of degree < nodes/2.

A Gram matrix is a finite set of moments, and :func:`gauss_rule` integrates
it exactly, untruncated, wherever the chart's weight lives on one
parameter: Gauss-Hermite on a euclidean chart, whose weight e^{-|u|^2}
splits per coordinate; the trapezoid on the circle; and on graphs,
revolutions and the modulus graph of c z^k a Gauss rule for the weight
e^{-r^2} density in u1 or in rho = |u|, built by Lanczos and Golub-Welsch
on the two panel discretizations of :func:`_profile_panels`, which
``orthobasis.project_radial`` reads too, and certified by comparing them.
The polar rule of the modulus graph is given by points and weights.
:func:`study_rules` is the one place that chooses a study's rules.

:func:`node_blocks` samples a chart on a rule once per node, one block of
``_NODE_BLOCK`` nodes at a time -- the embedded points X, r^2 = |X|^2 and
the measure weights dmu = rule weights x density, or the rule's weights
where they carry the measure already -- and every integral, Gram matrix
and projection is summed over those blocks, so no study holds a whole
rule's sample; :func:`discretize` is the sample of the whole rule.  A
non-finite r^2 or volume density raises, naming the node, so the weights
are finite.  Integrands are functions of the ambient point x, and
:meth:`Discretization.sample` is the one place they are evaluated: it calls
them on X and names the first node whose value is non-finite.  Node
indices are those of the whole rule.  An integral is the weighted sum of
those values, and only its total is checked.  Every sum runs in a fixed
order, over the nodes of a block and then over the blocks, so every result
is reproducible bit for bit for a fixed rule, and a rule of one block sums
as one array.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .polyring import squared_norms
from .variety import GrowthEstimate, VarietyChart, estimate_growth, param_interval

__all__ = [
    "QuadratureError",
    "NoExactRuleError",
    "DimRule",
    "QuadRule",
    "Discretization",
    "MomentTable",
    "IntegrabilityScan",
    "build_rule",
    "gauss_rule",
    "truncated_rule",
    "study_rules",
    "discretize",
    "node_blocks",
    "integrate",
    "gaussian_moment",
    "moment_table",
    "tail_budget",
    "choose_truncation",
    "integrability_scan",
    "shell_moment_sum",
    "DEFAULT_NODES",
    "DEFAULT_EPS",
    "GAUSS_DELTA",
]

DEFAULT_NODES = {"unbounded": 64, "periodic": 64, "bounded": 48}  # by domain kind
DEFAULT_EPS = 1e-12  # the tail budget a truncation radius must meet by default

_TERM_FLOOR = 1e-300
_NODE_BLOCK = 2 ** 13  # quadrature nodes sampled at once; see node_blocks


class QuadratureError(RuntimeError):
    """Raised on invalid rules or non-finite integrand samples."""


class NoExactRuleError(QuadratureError):
    """Raised by :func:`gauss_rule` for a chart it has no exact rule for."""


@dataclass(frozen=True, eq=False)
class DimRule:
    """Nodes and weights on one parameter dimension: plain (Lebesgue) weights,
    unless the :class:`QuadRule` they are part of is untruncated."""

    kind: str  # the domain kind: "unbounded", "bounded" or "periodic"
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, repr=False, eq=False)
class QuadRule:
    """Nodes and weights over a chart's parameter domain.

    ``QuadRule(dims, R)`` is the tensor product of the one-dimensional rules
    ``dims``, truncated at radius R.  R = inf if and only if the weights
    carry e^{-r^2} dmu (``carries_measure``): nothing is truncated, and
    :func:`discretize` takes the weights as they are, with no density or
    e^{-r^2} factor.  At a finite R they are plain (Lebesgue) weights.  A
    rule that is not a tensor product has no ``dims``; it is given by
    ``points``, ``weights`` and ``kinds``, the domain kind of each
    parameter, and needs R = inf.  ``nodes_per_dim`` is empty for it.
    """

    dims: tuple
    truncation_radius: float
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    kinds: tuple = ()
    nodes_per_dim: tuple = field(init=False)

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        values = dict(dims=dims, truncation_radius=float(self.truncation_radius))
        if dims:
            shape = tuple(d.nodes.size for d in dims)
            points = np.empty(shape + (len(dims),))  # filled in place, one axis at a time
            for i, d in enumerate(dims):
                axis = [1] * len(dims)
                axis[i] = -1
                points[..., i] = d.nodes.reshape(axis)
            w = dims[0].weights
            for d in dims[1:]:
                w = np.multiply.outer(w, d.weights)
            values.update(kinds=tuple(d.kind for d in dims), nodes_per_dim=shape,
                          points=points.reshape(-1, len(dims)),
                          weights=np.asarray(w).ravel())
        elif not (self.carries_measure and self.points is not None
                  and self.weights is not None and self.kinds):
            raise ValueError("a rule without dims needs points, weights and kinds, "
                             "and R = inf")
        else:
            values.update(kinds=tuple(self.kinds), nodes_per_dim=())
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def carries_measure(self) -> bool:
        """The weights carry e^{-r^2} dmu: nothing is truncated."""
        return self.truncation_radius == math.inf

    def __repr__(self) -> str:
        size = f"nodes={self.nodes_per_dim}" if self.dims else f"points={self.weights.size}"
        return (f"QuadRule(dims=[{','.join(self.kinds)}], R={self.truncation_radius:g}, "
                f"{size})")


@functools.cache
def _legendre(n: int):
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], read-only: every
    rule of n nodes maps the same table, and leggauss solves an eigenproblem."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _hermite(n: int):
    """The n-node Gauss-Hermite nodes and weights, read-only, solved once per n.

    Weights that are not normal doubles raise :class:`QuadratureError` naming
    the degree n - 1; a failure is not cached, so each call raises anew.
    """
    with np.errstate(all="ignore"):  # checked right below
        x, w = np.polynomial.hermite.hermgauss(n)
    if not np.all(w >= np.finfo(float).tiny):
        raise QuadratureError(f"no Gauss-Hermite rule for degree {n - 1}: the weights "
                              f"of {n} nodes underflow or overflow a double")
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo: float, hi: float):
    x, w = _legendre(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def build_rule(chart: VarietyChart, radius: float, nodes_per_dim=None) -> QuadRule:
    """Construct the tensor rule for a chart truncated at the finite radius ``radius``.

    ``nodes_per_dim`` may be a single integer (NumPy's too) for every
    dimension, a sequence with one entry per dimension, or None for
    :data:`DEFAULT_NODES` of each dimension's domain kind.  Its weights are
    plain; an untruncated rule is :func:`gauss_rule`'s.
    """
    if not math.isfinite(radius):
        raise QuadratureError(f"a truncated rule needs a finite radius, got {radius}")
    d = chart.intrinsic_dim
    if nodes_per_dim is None:
        counts = [None] * d
    else:
        try:
            if isinstance(nodes_per_dim, (str, bytes)):
                raise TypeError("text is one count, not a sequence of counts")
            counts = list(nodes_per_dim)
        except TypeError:  # not a sequence: one count for every dimension
            counts = [nodes_per_dim] * d
        if len(counts) != d:
            raise QuadratureError(
                f"nodes_per_dim has {len(counts)} entries for a {d}-parameter chart"
            )
    dims = []
    for dim, dom in enumerate(chart.domains):
        given = counts[dim] if counts[dim] is not None else DEFAULT_NODES[dom.kind]
        try:
            n = operator.index(given)  # any integer type, NumPy's too, as a Python int
        except TypeError:  # a float or other non-integer
            n = 0
        if n < 4:  # a bool too: its index is 0 or 1
            raise QuadratureError(f"nodes_per_dim must be integers >= 4, got {given!r}")
        if dom.kind == "periodic":
            dims.append(_trapezoid(n))
            continue
        lo, hi = param_interval(chart, dim, radius)
        if dom.kind == "unbounded" and lo < 0.0 < hi:
            x1, w1 = _gauss_legendre(n // 2, lo, 0.0)
            x2, w2 = _gauss_legendre(n - n // 2, 0.0, hi)
            nodes = np.concatenate([x1, x2])
            weights = np.concatenate([w1, w2])
        else:
            nodes, weights = _gauss_legendre(n, lo, hi)
        dims.append(DimRule(dom.kind, lo, hi, nodes, weights))
    return QuadRule(dims, radius)


_PANELS, _PANEL_NODES = 32, 40  # composite Gauss-Legendre discretization of a weight
_WEIGHT_CAP = 745.0  # r^2 past which e^{-r^2} underflows a double
GAUSS_DELTA = 1e-11  # the largest certified move of a Lanczos-built rule; see gauss_rule


def _trapezoid(n: int) -> DimRule:
    """n-node trapezoid on [0, 2 pi): exact below trigonometric degree n."""
    return DimRule("periodic", 0.0, 2.0 * math.pi, 2.0 * math.pi * np.arange(n) / n,
                   np.full(n, 2.0 * math.pi / n))


def _panels(lo: float, hi: float, panels: int):
    """Nodes and weights of ``panels`` equal Gauss-Legendre panels on [lo, hi],
    with 0 made a panel edge, where a density such as |u| sqrt(4 + 9u^2) may kink."""
    x, w = _legendre(_PANEL_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    if lo < 0.0 < hi:
        edges = np.union1d(edges, [0.0])
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _lanczos_gauss(t: np.ndarray, w: np.ndarray, n: int):
    """The n-node Gauss rule of the discrete measure sum_i w_i delta(t_i), w_i > 0.

    Lanczos on diag(t) from sqrt(w), orthogonalized twice against every
    earlier vector, gives the Jacobi matrix; its eigenvalues are the nodes
    (Golub-Welsch), and each weight is the Christoffel number
    1 / sum_k p_k(x)^2 of the orthonormal polynomials, which keeps the
    relative accuracy of the small outer weights.
    """
    mass = float(np.sum(w))
    if not mass > 0.0:
        raise QuadratureError("the weight has no mass on its discretization")
    t_max = float(np.max(np.abs(t)))
    alpha, beta = np.zeros(n), np.zeros(n)
    V = np.zeros((n, t.size))
    v = np.sqrt(w / mass)
    for j in range(n):
        V[j] = v
        r = t * v
        alpha[j] = v @ r
        for _ in range(2):
            r -= V[:j + 1].T @ (V[:j + 1] @ r)
        beta[j] = math.sqrt(r @ r)
        if j + 1 < n:
            if not beta[j] > 1e-13 * t_max:
                raise QuadratureError(f"the weight's discretization supports fewer than "
                                      f"{n} nodes")
            v = r / beta[j]
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    p_prev, p = np.zeros(n), np.full(n, 1.0 / math.sqrt(mass))
    total = p * p
    for k in range(n - 1):
        p_prev, p = p, ((x - alpha[k]) * p - beta[k - 1] * p_prev) / beta[k]
        total += p * p
    return x, 1.0 / total


def _certify(rule, coarse, t, w) -> None:
    """Raise unless the n-node ``rule`` has the moments below degree 2n of the
    discrete measure (t, w > 0) it was built on, and the rule ``coarse``, built on
    a coarser discretization, is the same, both within GAUSS_DELTA: moments
    against the absolute moments, nodes against the half-width of the
    support, weights against themselves."""
    (x, lam), (x2, lam2) = rule, coarse
    center = float(w @ t) / float(np.sum(w))
    scale = float(np.max(np.abs(t - center)))
    s, sx = (t - center) / scale, (x - center) / scale
    powers, rule_powers = np.ones_like(s), np.ones_like(sx)
    for j in range(2 * x.size):
        if abs(lam @ rule_powers - w @ powers) > GAUSS_DELTA * (w @ np.abs(powers)):
            raise QuadratureError(f"the {x.size}-node Gauss rule misses moment {j} of "
                                  f"its weight by more than {GAUSS_DELTA:g}")
        powers *= s
        rule_powers *= sx
    moved = max(np.max(np.abs(x2 - x)) / scale, np.max(np.abs(lam2 - lam) / lam))
    if not moved <= GAUSS_DELTA:
        raise QuadratureError(f"a finer discretization moves the {x.size}-node Gauss "
                              f"rule by {moved:.3g}, more than {GAUSS_DELTA:g}")


def _profile_panels(chart: VarietyChart, decay: float = 1.0, half: bool = False):
    """The chart at (t, 0, ...) on P Gauss-Legendre panels of a weight's support in
    its first parameter t, and on 2P: (U, X = embed(U), r^2 = |X|^2, plain weights).

    A bounded support is the domain, with P = ``_PANELS``.  An unbounded one,
    where decay r^2 < ``_WEIGHT_CAP`` (past which e^{-decay r^2} is 0 in a
    double), ends at the outermost real roots of r^2(t) - cap, cap =
    ``_WEIGHT_CAP`` / decay: r^2 is a polynomial of degree 2k (k =
    ``chart.param_degree``), interpolated at Chebyshev points on [-sqrt(cap),
    sqrt(cap)] and again between the roots found, and must be the cap at the
    ends within ``GAUSS_DELTA`` relative.  A ``half`` support starts at t = 0.
    It is up to 1 / sqrt(decay) as wide as where r^2 < ``_WEIGHT_CAP``, and P
    is ``_PANELS`` / sqrt(decay), rounded up.
    """
    def along(t):
        U = np.zeros((t.size, chart.intrinsic_dim))
        U[:, 0] = t
        with np.errstate(all="ignore"):  # the callers check what they form from r^2
            X = chart.embed(U)
            return U, X, squared_norms(X)

    dom = chart.domains[0]
    lo, hi, deg, panels = dom.lo, dom.hi, 2 * chart.param_degree, _PANELS
    if dom.kind == "unbounded":
        cap, panels = _WEIGHT_CAP / decay, math.ceil(_PANELS / math.sqrt(decay))
        lo, hi = -math.sqrt(cap), math.sqrt(cap)
        for _ in range(2):  # the second fit is on the support the first one found
            roots = (np.polynomial.Chebyshev.interpolate(lambda t: along(t)[2], deg, (lo, hi))
                     - cap).roots()
            ends = roots.real[roots.imag == 0]
            if not (ends.size and ends.min() < ends.max()):
                raise QuadratureError(f"|x|^2 >= {cap:g} along the weight's parameter")
            lo, hi = ends.min(), ends.max()
        miss = np.max(np.abs(along(np.array([lo, hi]))[2] / cap - 1.0))
        if not miss <= GAUSS_DELTA:
            raise QuadratureError(f"|x|^2 is off {cap:g} by {miss:.3g} relative at the "
                                  f"ends of the support its degree-{deg} interpolant gives")
        lo = max(lo, 0.0) if half else lo
    return [(*along(t), plain) for t, plain in (_panels(lo, hi, p) for p in (panels, 2 * panels))]


def gauss_rule(chart: VarietyChart, degree: int) -> QuadRule:
    """A rule exact for every entry of the degree-``degree`` Gram matrix under e^{-r^2} dmu.

    D = ``degree``, k = ``chart.param_degree``.  Nothing is truncated, so the
    truncation radius is inf, and the weights carry e^{-r^2} dmu.
    - euclidean: D + 1 Gauss-Hermite nodes per dimension, exact for
      e^{-|u|^2} times any polynomial of degree <= 2D + 1;
    - circle: the (2D + 1)-node trapezoid, exact for trigonometric degree 2D;
    - graph and revolution: the (kD + 1)-node Gauss rule in u1 for the weight
      e^{-r^2} density, which depends on u1 alone, exact for the u1-degree
      2kD of a Gram entry; on a revolution times the (2D + 1)-node trapezoid
      in the angle;
    - modulus graph of c z^k (``chart.radial``): the polar rule
      (rho cos theta, rho sin theta), the (kD + 1)-node Gauss rule in rho for
      rho e^{-r^2} density times the (2D + 1)-node trapezoid in theta.

    The Gauss rules in one parameter are built by Lanczos on a composite
    Gauss-Legendre discretization of the weight's support, found from the
    roots of r^2(t) - 745 (:func:`_profile_panels`), and Golub-Welsch, and
    certified: they match the discretization's moments below degree
    2(kD + 1), and a finer discretization moves no node or weight by more
    than ``GAUSS_DELTA``.  Any other chart, one whose parameter degree is
    not known, and a one-parameter rule that cannot be built or certified
    raise :class:`NoExactRuleError`, naming the chart; :func:`study_rules`
    then falls back.  Gauss-Hermite weights that are not normal doubles
    raise :class:`QuadratureError` naming the degree.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if chart.kind == "euclidean":
        x, w = _hermite(degree + 1)
        dim = DimRule("unbounded", -math.inf, math.inf, x.copy(), w.copy())
        return QuadRule((dim,) * chart.intrinsic_dim, math.inf)
    trig = _trapezoid(2 * degree + 1)
    if chart.kind == "circle":  # w density e^{-r^2}, as discretize forms it at finite R
        U = trig.nodes[:, None]
        w = trig.weights * chart.volume_density(U) * np.exp(-squared_norms(chart.embed(U)))
        return QuadRule((DimRule("periodic", trig.lo, trig.hi, trig.nodes, w),), math.inf)
    k, polar = chart.param_degree, chart.kind == "modulus_graph" and chart.radial
    if k is None or not (polar or chart.kind in ("graph", "revolution")):
        raise NoExactRuleError(f"no exact Gram rule for {chart.chart_id}")
    try:  # the weight e^{-r^2} density, times t when polar, on both discretizations
        discs = []
        for U, _, r2, plain in _profile_panels(chart, half=polar):
            with np.errstate(all="ignore"):  # checked right below
                w = plain * (np.exp(-r2) * chart.volume_density(U) * (U[:, 0] if polar else 1.0))
            _check_nodes(U, w, "Gram weight")
            discs.append((U[w > 0, 0], w[w > 0]))  # past the cap e^{-r^2} is 0
        coarse, (t, w) = (_lanczos_gauss(t, w, k * degree + 1) for t, w in discs)
        _certify((t, w), coarse, *discs[1])
    except QuadratureError as exc:
        raise NoExactRuleError(f"no certified Gram rule for {chart.chart_id}: {exc}") from exc
    if polar:
        points = np.stack([np.outer(t, np.cos(trig.nodes)).ravel(),
                           np.outer(t, np.sin(trig.nodes)).ravel()], axis=1)
        return QuadRule((), math.inf, points, np.outer(w, trig.weights).ravel(),
                        tuple(d.kind for d in chart.domains))
    dom = chart.domains[0]
    lo, hi = (dom.lo, dom.hi) if dom.kind == "bounded" else (-math.inf, math.inf)
    dims = (DimRule(dom.kind, lo, hi, t, w),)
    return QuadRule(dims if chart.kind == "graph" else dims + (trig,), math.inf)


def _check_nodes(U: np.ndarray, vals: np.ndarray, what: str, start: int = 0) -> None:
    """Raise naming the first node, and its parameters, where ``vals`` is non-finite;
    ``U`` holds the parameters of nodes ``start``, ``start + 1``, ... of a rule."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise QuadratureError(f"non-finite {what} at node {start + i}, "
                              f"parameters {U[i].tolist()}")


def _checked_total(total):
    """``total``, a scalar or one value per integral, if every value is finite."""
    if not np.all(np.isfinite(total)):
        raise QuadratureError(f"non-finite integral {total} of finite samples")
    return total


@dataclass(frozen=True, eq=False)
class Discretization:
    """A chart sampled on the nodes ``nodes`` of a rule: all of them
    (:func:`discretize`) or one block (:func:`node_blocks`).

    ``X`` holds the embedded nodes (N, n), ``r2`` the squared radii |X|^2
    and ``dmu`` the rule weights times the volume density, all finite;
    ``dmu`` is None when the rule's weights carry e^{-r^2} dmu.
    Integrands are evaluated and checked by :meth:`sample` only.
    :meth:`weights` and :meth:`sample` cover ``nodes`` only, and errors
    name a node by its index in the whole rule.
    """

    rule: QuadRule
    X: np.ndarray
    r2: np.ndarray
    dmu: np.ndarray | None
    nodes: slice

    def weights(self, weight: str = "gauss", scale: float = 1.0) -> np.ndarray:
        """Node weights of e^{-scale * r^2} dmu, or of plain dmu for "none".

        A rule that carries the measure has no plain dmu weights, so "none"
        raises :class:`QuadratureError` on it.
        """
        if weight not in ("gauss", "none"):
            raise ValueError(f"weight must be 'gauss' or 'none', got {weight!r}")
        if self.dmu is None:
            if weight == "none":
                raise QuadratureError("weight 'none' needs plain dmu weights, and this "
                                      "rule's weights carry e^{-r^2} dmu")
            weights = self.rule.weights[self.nodes]
            if scale == 1.0:
                return weights
            return weights * np.exp((1.0 - scale) * self.r2)
        if weight == "gauss":
            return self.dmu * np.exp(-scale * self.r2)
        return self.dmu

    def sample(self, g) -> np.ndarray:
        """Node values of ``g``: g(X) for a callable, else a scalar or node array.

        Raises :class:`QuadratureError` naming the first node, and its
        parameters, whose value is non-finite; no numpy warning escapes.
        """
        with np.errstate(all="ignore"):  # checked right below
            vals = g(self.X) if callable(g) else g
            vals = np.broadcast_to(vals, self.r2.shape)
        _check_nodes(self.rule.points[self.nodes], vals, "integrand sample",
                     self.nodes.start)
        return vals

    def integrate(self, g, weight: str = "gauss", scale: float = 1.0):
        """Weighted sum of :meth:`sample` ``(g)``; a total that overflows raises."""
        vals = self.sample(g)
        with np.errstate(over="ignore", invalid="ignore"):  # the total is checked
            return _checked_total(np.sum(self.weights(weight, scale) * vals))


def _check_kinds(chart: VarietyChart, rule: QuadRule) -> None:
    kinds, domains = list(rule.kinds), [d.kind for d in chart.domains]
    if kinds != domains:
        raise QuadratureError(f"rule kinds {kinds} do not fit chart domains {domains}")


def _sample(chart: VarietyChart, rule: QuadRule, nodes: slice) -> Discretization:
    """The chart on the rule nodes ``nodes``, checked; see :func:`discretize`."""
    U, weights = rule.points[nodes], rule.weights[nodes]
    with np.errstate(all="ignore"):  # checked right below
        X = chart.embed(U)
        r2 = squared_norms(X)
        dmu = None if rule.carries_measure else weights * chart.volume_density(U)
    _check_nodes(U, r2, "|x|^2", nodes.start)
    if dmu is not None:
        _check_nodes(U, dmu, "volume density", nodes.start)
    return Discretization(rule=rule, X=X, r2=r2, dmu=dmu, nodes=nodes)


def discretize(chart: VarietyChart, rule: QuadRule) -> Discretization:
    """Sample ``chart`` on all nodes of ``rule``, whose kinds must match its domains.

    A non-finite |x|^2 or volume density raises, naming the first such node.
    The density is not evaluated for an untruncated rule, whose weights carry
    the measure.
    """
    _check_kinds(chart, rule)
    return _sample(chart, rule, slice(0, rule.weights.size))


def node_blocks(chart: VarietyChart, rule: QuadRule):
    """The :func:`discretize` sample of each consecutive block of at most
    ``_NODE_BLOCK`` nodes of ``rule``, in node order; an empty rule is one
    empty block.  A block is sampled when it is reached, so a pass over the
    blocks holds one block's sample at a time.
    """
    _check_kinds(chart, rule)
    size, step = rule.weights.size, _NODE_BLOCK
    return (_sample(chart, rule, slice(a, min(a + step, size)))
            for a in range(0, size or 1, step))


def _block_sum(chart: VarietyChart, rule: QuadRule, partial, add=operator.add):
    """The sum of ``partial(block)``, a scalar or an array, over the node blocks
    of ``rule`` in node order, checked; a rule of one block gives its partial."""
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked
        return _checked_total(functools.reduce(add, map(partial, node_blocks(chart, rule))))


def integrate(chart: VarietyChart, g, rule: QuadRule, weight: str = "gauss"):
    """Quadrature value of  integral g(x) e^{-r^2} dmu,  or of g(x) dmu for "none".

    ``g`` is a function of the ambient point: a callable on the embedded
    nodes X of shape (N, n), such as a :class:`MultiPoly`, or a scalar
    constant.  Raises :class:`QuadratureError` naming the parameters of the
    first node whose sample is non-finite.
    """
    return _block_sum(chart, rule, lambda block: block.integrate(g, weight))


def gaussian_moment(chart: VarietyChart, m: int, rule: QuadRule) -> float:
    """The moment I_m = integral r^m e^{-r^2} dmu over the chart."""
    return moment_table(chart, [m], rule).rows[0][1]


# ------------------------------------------------------------------ tail budget


def tail_budget(C: float, l: int, m: int, R: float) -> float:
    """Tail of the majorant series C * sum_{j >= floor(R)} (j+1)^{m+l} e^{-j^2}.

    Terms are summed until they drop below 1e-300; the term ratio
    ((j+1)/j)^{m+l} e^{-2j-1} vanishes, so this terminates quickly.  A term
    beyond the float range makes the tail inf, which exceeds every budget.
    """
    if C <= 0:
        raise ValueError(f"growth constant must be positive, got {C}")
    if R < 1:
        raise ValueError(f"cutoff radius must be >= 1, got {R}")
    j = int(math.floor(R))
    total = 0.0
    while True:
        try:
            term = C * math.exp((m + l) * math.log(j + 1.0) - float(j) * j)
        except OverflowError:
            return math.inf
        total += term
        j += 1
        if term < _TERM_FLOOR or j > 10 ** 6:
            break
    return total


def choose_truncation(growth: GrowthEstimate, m_max: int, eps: float = DEFAULT_EPS) -> int:
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


_FIT_RADII = np.linspace(2.0, 10.0, 9)  # radii of the growth fit behind every rule


def truncated_rule(chart: VarietyChart, m_max: int, eps: float = DEFAULT_EPS,
                   nodes_per_dim=None) -> tuple[GrowthEstimate, QuadRule]:
    """The growth fit on ``_FIT_RADII``, and the rule with ``nodes_per_dim`` at the
    :func:`choose_truncation` radius for orders up to ``m_max``: every study's rule."""
    growth = estimate_growth(chart, _FIT_RADII)
    return growth, build_rule(chart, choose_truncation(growth, m_max, eps), nodes_per_dim)


def study_rules(chart: VarietyChart, degree: int, weight: str = "gauss", target=None,
                eps: float = DEFAULT_EPS, nodes=None) -> tuple[QuadRule, QuadRule]:
    """The rules for the degree-``degree`` Gram matrix under ``weight`` and for
    ``target``: the one place a study's rules are chosen.  Under ``weight="gauss"``
    with no target both are the exact :func:`gauss_rule`, and only
    :class:`NoExactRuleError` falls back; otherwise, and then, both are one
    :func:`truncated_rule` for orders up to 2 ``degree``, with tail budget ``eps``
    and ``nodes``.  Any other :class:`QuadratureError` propagates.
    """
    rule = None
    if weight == "gauss" and target is None:
        try:
            rule = gauss_rule(chart, degree)
        except NoExactRuleError:
            pass
    if rule is None:
        rule = truncated_rule(chart, 2 * degree, eps, nodes)[1]
    return rule, rule


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
    """Compute I_m for each m, recording the tail budget when growth is known.

    Each I_m is summed as :func:`integrate` sums it, bit for bit, in one
    pass over the node blocks for all orders.
    """
    m_values = list(m_values)
    for m in m_values:
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")

    def partial(block):
        r2, weights = block.r2, block.weights()  # what block.integrate forms per order
        return np.array([np.sum(weights * block.sample(lambda _: r2 ** (m / 2.0)))
                         for m in m_values])

    rows = []
    for m, value in zip(m_values, _block_sum(chart, rule, partial).tolist()):
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
    def partial(block):
        return block.integrate(lambda _: np.exp(2.0 * alpha * block.r2))

    values = [float(_block_sum(chart, build_rule(chart, R), partial)) for R in radii]
    divergent = any(
        values[i + 3] > 10.0 * values[i] for i in range(len(values) - 3)
    )
    return IntegrabilityScan(radii=radii, values=tuple(values), divergent=divergent)


# ------------------------------------------------------------------ shell sums


def shell_moment_sum(chart: VarietyChart, m: int, rule: QuadRule):
    """Moment I_m re-summed over the integer shells B_{j+1} - B_j.

    Returns (per-shell contributions, their total).  The shells partition
    the nodes, so the total must agree with the direct moment up to
    summation reordering.  A non-finite sample or total raises.
    """
    def partial(block):
        r = np.sqrt(block.r2)
        vals = block.sample(lambda _: r ** m)
        return np.bincount(np.floor(r).astype(int), weights=block.weights() * vals)

    shells = _block_sum(chart, rule, partial, _add_padded)
    with np.errstate(over="ignore"):  # the total is checked
        return shells, float(_checked_total(np.sum(shells)))


def _add_padded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, the shorter one padded with zeros at its end."""
    if a.size < b.size:
        a, b = b, a
    total = a.copy()
    total[:b.size] += b
    return total
