"""Parametrized charts of embedded varieties in R^n.

A chart carries exactly what the measure e^{-|x|^2} dmu needs: the
embedding x(u) of a d-parameter family into R^n and the volume density
sqrt(det(J^T J)) that converts parameter integrals to surface integrals.
The squared radius r^2 = |x(u)|^2 is derived from the embedding, so no
chart states it separately.  The supported families are

* ``euclidean``      -- R^n with the identity embedding,
* ``graph``          -- the graph x -> (x, f_1(x), ..., f_{n-1}(x)) of a
                        polynomial map, optionally restricted to an interval,
* ``revolution``     -- (f(u1) cos u2, f(u1) sin u2, h(u1)) with f > 0,
* ``modulus_graph``  -- (x, y, |F(x + iy)|) for a complex polynomial F,
* ``circle``         -- the parametric unit circle (cos u, sin u) in R^2.

Charts are immutable and all evaluators are vectorized over arrays of
parameter points of shape (N, d).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .polyring import MultiPoly, as_points, parse_poly, squared_norms

__all__ = [
    "ChartError",
    "GrowthError",
    "SpecFileError",
    "ParamDomain",
    "VarietyChart",
    "GrowthEstimate",
    "chart_euclidean",
    "chart_graph",
    "chart_revolution",
    "chart_modulus_graph",
    "chart_circle",
    "estimate_growth",
    "param_interval",
    "solve_param_bound",
    "load_chart",
]


class ChartError(ValueError):
    """Raised when a chart's preconditions are violated (e.g. f <= 0)."""


class GrowthError(RuntimeError):
    """Raised when a volume-growth measurement or fit fails."""


class SpecFileError(ValueError):
    """Raised for malformed variety spec files."""


@dataclass(frozen=True)
class ParamDomain:
    """Domain of one parameter: 'unbounded', 'bounded' [lo, hi], or 'periodic'.

    Only u1 can be bounded: ends that are not finite with lo < hi raise ChartError.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("unbounded", "bounded", "periodic"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "bounded" and not -math.inf < self.lo < self.hi < math.inf:
            raise ChartError(f"u1_domain needs finite bounds lo < hi, "
                             f"got [{self.lo!r}, {self.hi!r}]")

    def baseline(self) -> float:
        """A reference point inside the domain (0 or the interval midpoint).

        The halves are added, so the midpoint of finite bounds is finite.
        """
        if self.kind == "bounded":
            return 0.5 * self.lo + 0.5 * self.hi
        return 0.0


@dataclass(frozen=True, eq=False, repr=False)
class VarietyChart:
    """A parametrization U subset R^d -> R^n with its volume density.

    |x|^2 must be finite at the ends and middle of a bounded u1_domain.
    ``param_degree`` is the degree k of the coordinates in the parameter
    that carries the weight: 1 on euclidean charts and the circle,
    max(1, deg f_i) on a graph, max(deg f, deg h) on a revolution in u1,
    and max(1, deg F) on a modulus graph, whose coordinates are polynomials
    of that degree in rho = |u| when F = c z^k; None where it is not known.
    ``radial`` says that |x|^2 and the density depend on (u1, u2) only
    through rho, as on the modulus graph of a monomial.
    """

    kind: str
    ambient_dim: int
    domains: tuple
    _embed: object
    _density: object
    chart_id: str
    param_degree: int | None = None
    radial: bool = False

    def __post_init__(self):
        if self.intrinsic_dim > self.ambient_dim:
            raise ChartError(f"intrinsic dimension {self.intrinsic_dim} exceeds "
                             f"ambient dimension {self.ambient_dim}")
        dom = self.domains[0]
        if dom.kind == "bounded":
            rest = [d.baseline() for d in self.domains[1:]]
            U = [[u1, *rest] for u1 in (dom.lo, dom.baseline(), dom.hi)]
            with np.errstate(over="ignore", invalid="ignore"):  # checked right below
                r2 = self.radial_sq(U)
            if not np.all(np.isfinite(r2)):
                u1 = U[int(np.nonzero(~np.isfinite(r2))[0][0])][0]
                raise ChartError(f"u1_domain [{dom.lo!r}, {dom.hi!r}] is too wide: "
                                 f"|x|^2 is not finite at u1 = {u1!r}")

    @property
    def intrinsic_dim(self) -> int:
        return len(self.domains)

    def _params(self, u) -> tuple[np.ndarray, bool]:
        return as_points(np.asarray(u, dtype=float), self.intrinsic_dim, "parameter")

    def embed(self, u) -> np.ndarray:
        """Ambient coordinates of the parameter point(s); shape (N, n)."""
        arr, single = self._params(u)
        pts = self._embed(arr)
        return pts[0] if single else pts

    def volume_density(self, u):
        arr, single = self._params(u)
        vals = self._density(arr)
        return float(vals[0]) if single else vals

    def radial_sq(self, u):
        """Squared distance |x|^2 of the embedded point(s) to the origin."""
        arr, single = self._params(u)
        vals = squared_norms(self._embed(arr))
        return float(vals[0]) if single else vals

    def __repr__(self) -> str:
        return f"VarietyChart({self.chart_id})"


# ------------------------------------------------------------------ constructors


def chart_euclidean(n: int) -> VarietyChart:
    """R^n with the identity embedding and density 1."""
    if n < 1:
        raise ChartError(f"euclidean chart needs n >= 1, got {n}")

    def embed(U):
        return U.copy()

    def density(U):
        return np.ones(U.shape[0])

    return VarietyChart("euclidean", n, (ParamDomain("unbounded"),) * n,
                        embed, density, f"euclidean(n={n})", 1)


def _univariate(p: MultiPoly, name: str, real: bool = True) -> MultiPoly:
    """``p`` checked to be univariate with finite (and, if ``real``, real)
    coefficients.  A real polynomial is returned with float coefficients, so
    it evaluates to float64 also when it was built with complex arithmetic."""
    if p.ambient_dim != 1:
        raise ChartError(f"{name} must be a univariate polynomial, "
                         f"got ambient dimension {p.ambient_dim}")
    coeffs = [complex(c) for c in p.terms.values()]
    if not all(cmath.isfinite(c) and (c.imag == 0 or not real) for c in coeffs):
        raise ChartError(f"{name} must have finite {'real ' if real else ''}"
                         f"coefficients, got {p.to_text()}")
    return MultiPoly(1, {m: c.real for m, c in zip(p.terms, coeffs)}) if real else p


def _base_domain(bounds) -> tuple[ParamDomain, str]:
    """Domain of the base parameter, R or [lo, hi], and its text in chart ids."""
    if bounds is None:
        return ParamDomain("unbounded"), "R"
    dom = ParamDomain("bounded", float(bounds[0]), float(bounds[1]))
    return dom, f"[{dom.lo:g},{dom.hi:g}]"


def chart_graph(components, domain=None) -> VarietyChart:
    """Graph of a polynomial map R -> R^{n-1}; n = 1 + len(components).

    ``domain`` restricts the base variable to a bounded interval [lo, hi];
    by default the base is all of R.  The density is sqrt(1 + |f'(x)|^2).
    The components must have finite real coefficients.
    """
    comps = [_univariate(c, f"components[{i}]") for i, c in enumerate(components)]
    derivs = [c.partial(0) for c in comps]
    n = 1 + len(comps)
    dom, dom_id = _base_domain(domain)

    def embed(U):
        x = U[:, 0]
        cols = [x] + [c.eval(x.reshape(-1, 1)) for c in comps]
        return np.stack(cols, axis=1)

    def density(U):
        x = U[:, 0].reshape(-1, 1)
        acc = np.ones(U.shape[0])
        for d in derivs:
            val = d.eval(x)
            acc = acc + val * val
        return np.sqrt(acc)

    texts = ",".join(c.to_text() for c in comps)
    return VarietyChart("graph", n, (dom,), embed, density,
                        f"graph([{texts}],{dom_id})", max([1, *(c.degree for c in comps)]))


def _check_profile_positive(f: MultiPoly, dom: ParamDomain) -> None:
    """Reject f unless it is positive on the whole domain.

    The minimum of f on an interval is at a root of f' or at an end point,
    so f is evaluated at the real parts of the roots of f' in the domain and
    at the ends of a bounded domain.  On R, f must also be a positive
    constant or have even degree and a positive leading coefficient.
    """
    c = np.zeros(max(f.degree, 0) + 1)
    for mono, coeff in f.terms.items():
        c[mono[0]] = coeff
    p = np.poly1d(c[::-1])  # drops zero leading coefficients
    pts = np.real(p.deriv().roots)
    if dom.kind == "bounded":
        pts = np.append(pts[(pts >= dom.lo) & (pts <= dom.hi)], [dom.lo, dom.hi])
    elif p.order % 2 or p.coeffs[0] <= 0:
        raise ChartError(f"revolution profile f = {f.to_text()} is not positive on R")
    # the baseline point settles a constant f, whose f' has no roots; a value
    # that overflows is +-inf, which still compares right against 0
    with np.errstate(over="ignore"):
        low = float(np.min(p(np.append(pts, dom.baseline()))))
    if low <= 0:
        raise ChartError("revolution profile f must be positive on the parameter "
                         f"domain; minimum {low:.6g}")


def chart_revolution(f: MultiPoly, h: MultiPoly, u1_domain=None) -> VarietyChart:
    """Revolution surface (f(u1) cos u2, f(u1) sin u2, h(u1)) in R^3.

    Density f * sqrt(f'^2 + h'^2).  f and h must have finite real
    coefficients, and the profile f must be positive; this is checked
    exactly, at the roots of f' and at the domain ends.
    """
    f, h = _univariate(f, "f"), _univariate(h, "h")
    dom1, dom_id = _base_domain(u1_domain)
    _check_profile_positive(f, dom1)
    fp, hp = f.partial(0), h.partial(0)

    def embed(U):
        u1 = U[:, 0].reshape(-1, 1)
        fv, hv = f.eval(u1), h.eval(u1)
        return np.stack([fv * np.cos(U[:, 1]), fv * np.sin(U[:, 1]), hv], axis=1)

    def density(U):
        u1 = U[:, 0].reshape(-1, 1)
        fv, fpv, hpv = f.eval(u1), fp.eval(u1), hp.eval(u1)
        return fv * np.sqrt(fpv * fpv + hpv * hpv)

    return VarietyChart("revolution", 3, (dom1, ParamDomain("periodic")), embed, density,
                        f"revolution(f={f.to_text()},h={h.to_text()},u1={dom_id})",
                        max(f.degree, h.degree))


def chart_modulus_graph(F: MultiPoly) -> VarietyChart:
    """The surface (x, y, |F(z)|) over z = x + iy for a complex polynomial F.

    Density sqrt(1 + |F'(z)|^2).  F may have complex coefficients, which
    must be finite.  |F| is not smooth at zeros of F, but those form a null
    set and the direct formulas below stay finite there.
    """
    F = _univariate(F, "F", real=False)
    Fp = F.partial(0)

    def _z(U):
        return (U[:, 0] + 1j * U[:, 1]).reshape(-1, 1)

    def embed(U):
        w = np.abs(F.eval(_z(U)))
        return np.stack([U[:, 0], U[:, 1], w], axis=1)

    def density(U):
        dw = np.abs(Fp.eval(_z(U)))
        return np.sqrt(1.0 + dw * dw)

    return VarietyChart("modulus_graph", 3, (ParamDomain("unbounded"),) * 2,
                        embed, density, f"modulus_graph(F={F.to_text()})",
                        max(1, F.degree), radial=len(F.terms) == 1)


def chart_circle() -> VarietyChart:
    """The parametric unit circle (cos u, sin u) in R^2 (compact, algebraic)."""

    def embed(U):
        return np.stack([np.cos(U[:, 0]), np.sin(U[:, 0])], axis=1)

    def density(U):
        return np.ones(U.shape[0])

    return VarietyChart("circle", 2, (ParamDomain("periodic"),), embed, density, "circle()", 1)


# ------------------------------------------------------------------ truncation solve


_BOUND_SAMPLES = 10000
_BOUND_PAD = 0.1


def solve_param_bound(chart: VarietyChart, dim: int, radius: float):
    """Interval [lo, hi] on parameter axis ``dim`` covering {r^2 <= radius^2}.

    Samples r^2 along the axis (other parameters at their
    domain baselines), takes the outermost crossing of radius^2 on each
    side and pads it by ``_BOUND_PAD``.  The chart's r^2 eventually
    grows along any unbounded direction, so a doubling search finds a
    bracket.  A side with no sample inside the ball raises
    :class:`GrowthError` naming the interval sampled there, also where the
    chart meets the ball past the bracket.
    """
    if chart.domains[dim].kind != "unbounded":
        raise ValueError("parameter bounds are only solved for unbounded dimensions")
    base = np.array([d.baseline() for d in chart.domains])
    r2cap = float(radius) ** 2

    def radial_along(ts):
        U = np.tile(base, (ts.size, 1))
        U[:, dim] = ts
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: outside
            return chart.radial_sq(U)

    span = 2.0 * max(radius, 1.0)
    for _ in range(60):
        if np.all(radial_along(np.array([span, -span])) > r2cap):
            break
        span *= 2.0
    else:
        raise GrowthError(
            f"could not bracket r^2 <= {r2cap:g} along parameter {dim}"
        )
    ts = np.linspace(0.0, span, _BOUND_SAMPLES)
    out = []
    for sign in (1.0, -1.0):
        inside = np.nonzero(radial_along(sign * ts) <= r2cap)[0]
        if inside.size == 0:
            side = sorted((0.0, sign * span))
            raise GrowthError(
                f"chart misses the ball of radius {radius:g} along parameter {dim}: "
                f"no sample of [{side[0]:g}, {side[1]:g}], on one side of its baseline "
                f"{base[dim]:g}, has r^2 <= {r2cap:g}"
            )
        out.append(sign * ts[inside[-1]] * (1.0 + _BOUND_PAD))
    hi, lo = out
    return lo, hi


def param_interval(chart: VarietyChart, dim: int, radius: float) -> tuple[float, float]:
    """Interval of parameter ``dim`` in the box of the chart truncated at ``radius``.

    [0, 2 pi] for a periodic parameter, the domain [lo, hi] for a bounded
    one, and :func:`solve_param_bound` for an unbounded one.
    """
    dom = chart.domains[dim]
    if dom.kind == "periodic":
        return 0.0, 2.0 * math.pi
    if dom.kind == "bounded":
        return dom.lo, dom.hi
    return solve_param_bound(chart, dim, radius)


# ------------------------------------------------------------------ volume growth


@dataclass(frozen=True, eq=False)
class GrowthEstimate:
    """Empirical certificate vol(M cap B_r) <= C * r^l on the sampled range."""

    C: float
    l: int
    slope: float
    radii: np.ndarray
    volumes: np.ndarray


_GROWTH_GRID = {1: 20001, 2: 641, 3: 129}
_GROWTH_BLOCK = 2 ** 15  # growth-grid nodes sampled at once


def _growth_axis(chart: VarietyChart, dim: int, r_max: float, npts: int):
    """Midpoint grid (nodes, cell size) covering B_{r_max} on one dimension."""
    lo, hi = param_interval(chart, dim, r_max)
    h = (hi - lo) / npts
    return lo + h * (np.arange(npts) + 0.5), h


def _count_euclidean(axes, radii: np.ndarray) -> np.ndarray:
    """Nodes of the tensor grid on ``axes`` with r^2 <= radius^2, per radius.

    r^2 is the left fold ((u0^2 + u1^2) + ...) + u_{d-1}^2 of
    :func:`squared_norms`.  Rounded addition is monotone, so for each
    last-axis square t the nodes with fl(s + t) <= radius^2 are a prefix of
    the sorted partial sums s over the other axes, and one search counts
    them exactly.  The partial sums are formed in slabs of about
    ``_GROWTH_BLOCK`` along the first axis; counts add across slabs.
    """
    r2cap = radii * radii
    *rest, last = (a * a for a, _ in axes)
    if not rest:  # d = 1: r^2 is the square itself
        return np.searchsorted(np.sort(last), r2cap, side="right")
    first = rest[0]
    step = max(1, _GROWTH_BLOCK // math.prod(sq.size for sq in rest[1:]))
    counts = np.zeros(radii.size, dtype=np.int64)
    for start in range(0, first.size, step):
        s = first[start:start + step]
        for sq in rest[1:]:
            s = np.add.outer(s, sq)
        s = np.sort(s, axis=None)
        for t in last:
            counts += np.searchsorted(s + t, r2cap, side="right")
    return counts


def _shell_weights(chart: VarietyChart, U: np.ndarray, radii: np.ndarray, mult=1.0):
    """Density times ``mult`` of the nodes ``U``, summed into the shell of the
    first radius whose ball holds each node; the last shell is outside them all."""
    dens = chart.volume_density(U)
    if not np.all(np.isfinite(dens)):
        raise GrowthError("non-finite volume density sample")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: outside
        r2 = chart.radial_sq(U)
    shell = np.searchsorted(radii * radii, r2, side="left")
    return np.bincount(shell, weights=dens * mult, minlength=radii.size + 1)


def _measure_volumes(chart: VarietyChart, radii: np.ndarray) -> np.ndarray:
    """Riemannian volume of M cap B_r for each r, on one fixed grid.

    Each kind takes the cheapest exact reduction of the same midpoint grid:

    * ``euclidean``: the density is 1, so a volume is the number of nodes
      in the ball times the cell; :func:`_count_euclidean` counts them from
      sorted partial sums of squares, with no chart evaluation.
    * ``revolution``: density and radius do not depend on the angle, so
      the grid is one-dimensional, times one cell of the whole angle.
    * a ``radial`` chart: density and radius depend on rho = |u| alone, so
      the square grid (one interval, symmetric about 0, on both axes) is
      sampled on one octant, the nodes (a_i, a_j) with j <= i of its
      non-negative half a, each weighted by the number of grid nodes its 8
      symmetries map it to.  This is exact up to the rounding of mirrored
      node coordinates.
    * every other kind: the grid is sampled in slabs of about
      ``_GROWTH_BLOCK`` nodes along its first axis.

    Each node's weight goes into the shell of the first radius whose ball
    holds it, and the volumes are the running sums of the shells.  A node
    lies in B_r when r^2 <= r * r on every path, so the volumes never
    decrease, and the euclidean counts equal the sampled ones bit for bit.
    """
    r_max = float(radii[-1])
    if chart.radial:
        nodes, h = _growth_axis(chart, 0, r_max, _GROWTH_GRID[2])
        half = nodes[nodes.size // 2:]  # the grid size is odd: the centre node, then the rest
        i, j = np.tril_indices(half.size)
        U = np.stack([half[i], half[j]], axis=1)
        mult = 2.0 ** (np.sign(i) + np.sign(j) + (i > j))  # mirrored axes, then the diagonal
        shells = sum(_shell_weights(chart, U[s:s + _GROWTH_BLOCK], radii, mult[s:s + _GROWTH_BLOCK])
                     for s in range(0, U.shape[0], _GROWTH_BLOCK))
        return np.cumsum(shells[:-1]) * (h * h)
    if chart.kind == "revolution":
        lo, hi = param_interval(chart, 1, r_max)
        axes = [_growth_axis(chart, 0, r_max, _GROWTH_GRID[1]), (np.full(1, lo), hi - lo)]
    else:
        npts = _GROWTH_GRID.get(chart.intrinsic_dim, 65)
        axes = [_growth_axis(chart, dim, r_max, npts)
                for dim in range(chart.intrinsic_dim)]
    cell = math.prod(a[1] for a in axes)
    if chart.kind == "euclidean":
        return _count_euclidean(axes, radii) * cell
    first = axes[0][0]
    # the grid with the first parameter at 0; a slab repeats it per first node
    mesh = np.meshgrid(np.zeros(1), *[a[0] for a in axes[1:]], indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=1)
    step = max(1, _GROWTH_BLOCK // base.shape[0])
    shells = np.zeros(radii.size + 1)
    for start in range(0, first.size, step):
        lead = first[start:start + step]
        U = np.tile(base, (lead.size, 1))
        U[:, 0] = np.repeat(lead, base.shape[0])
        shells += _shell_weights(chart, U, radii)
    return np.cumsum(shells[:-1]) * cell


def estimate_growth(chart: VarietyChart, radii) -> GrowthEstimate:
    """Measure vol(M cap B_r) over ``radii`` and fit the bound C * r^l.

    The declared exponent is l = d (intrinsic dimension); C is the least
    constant making the bound hold at every sample.  The reported slope is
    a log-log fit over the upper half of the radius range, and a slope
    exceeding l + 1/2 is treated as a failed fit.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError("need at least 4 radii")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    vols = _measure_volumes(chart, radii)
    l = chart.intrinsic_dim
    C = float(np.max(vols / radii ** l))
    mid = radii[radii.size // 2 - 1]
    tail = (radii >= mid) & (vols > 0)
    if np.count_nonzero(tail) < 2:
        raise GrowthError("not enough positive volume samples to fit a slope")
    slope = float(np.polyfit(np.log(radii[tail]), np.log(vols[tail]), 1)[0])
    if slope > l + 0.5:
        raise GrowthError(
            f"measured growth slope {slope:.3f} exceeds declared exponent "
            f"{l} + 1/2"
        )
    return GrowthEstimate(C=C, l=l, slope=slope, radii=radii, volumes=vols)


# ------------------------------------------------------------------ spec files


def _spec_poly(text, label: str) -> MultiPoly:
    if not isinstance(text, str):
        raise SpecFileError(f"{label} must be a polynomial text string")
    try:
        return parse_poly(text, ambient_dim=1)
    except ValueError as exc:
        raise SpecFileError(f"cannot parse polynomial {label}={text!r}: {exc}") from exc


def _parse_domain(value):
    """A JSON u1_domain as None or [lo, hi]; the chart checks the bounds themselves."""
    if value == "unbounded" or value is None:
        return None
    if (isinstance(value, (list, tuple)) and len(value) == 2
            # bool is an int subclass, but JSON true/false are not numbers
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return value
    raise SpecFileError(f"u1_domain must be 'unbounded' or [lo, hi], got {value!r}")


def _euclidean_spec(spec) -> VarietyChart:
    n = spec["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecFileError(f"n must be a positive integer, got {n!r}")
    return chart_euclidean(n)


def _graph_spec(spec) -> VarietyChart:
    comps = spec["components"]
    if not isinstance(comps, list):
        raise SpecFileError("components must be a list of polynomial texts")
    parsed = [_spec_poly(text, f"components[{i}]") for i, text in enumerate(comps)]
    return chart_graph(parsed, domain=_parse_domain(spec.get("u1_domain")))


# kind -> (required keys, optional keys, builder of the chart from the spec)
_SPECS = {
    "euclidean": ({"n"}, set(), _euclidean_spec),
    "graph": ({"components"}, {"u1_domain"}, _graph_spec),
    "revolution": ({"f", "h"}, {"u1_domain"}, lambda spec: chart_revolution(
        _spec_poly(spec["f"], "f"), _spec_poly(spec["h"], "h"),
        u1_domain=_parse_domain(spec.get("u1_domain")))),
    "modulus_graph": ({"F"}, set(), lambda spec: chart_modulus_graph(
        _spec_poly(spec["F"], "F"))),
    "circle": (set(), set(), lambda spec: chart_circle()),
}


def load_chart(spec) -> VarietyChart:
    """Build a chart from a spec dict or a JSON file path.

    ``_SPECS`` fixes the keys each kind requires and allows; any other key
    is rejected.  Polynomials are in the text format of
    :mod:`gaussvar.polyring`.
    """
    if not isinstance(spec, dict):
        path = spec
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except FileNotFoundError as exc:
            raise SpecFileError(f"variety spec file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"invalid JSON in variety spec {path}: {exc}") from exc
        if not isinstance(spec, dict):
            raise SpecFileError(f"variety spec {path} must contain a JSON object")
    unknown = set(spec) - {"kind"}.union(*(req | opt for req, opt, _ in _SPECS.values()))
    if unknown:
        raise SpecFileError(f"unknown keys in variety spec: {sorted(unknown)}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPECS:
        raise SpecFileError(
            f"kind must be one of {sorted(_SPECS)}, got {kind!r}"
        )
    required, optional, build = _SPECS[kind]
    given = set(spec) - {"kind"}
    missing = required - given
    if missing:
        raise SpecFileError(f"kind {kind!r} requires keys {sorted(missing)}")
    extra = given - required - optional
    if extra:
        raise SpecFileError(f"keys {sorted(extra)} do not apply to kind {kind!r}")
    try:
        return build(spec)
    except ChartError as exc:
        raise SpecFileError(f"invalid chart: {exc}") from exc
