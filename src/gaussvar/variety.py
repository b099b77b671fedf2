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
    """Domain of one parameter: 'unbounded', 'bounded' [lo, hi], or 'periodic'."""

    kind: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("unbounded", "bounded", "periodic"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "bounded" and not (self.lo < self.hi):  # type: ignore[operator]
            raise ValueError(f"bounded domain needs lo < hi, got [{self.lo}, {self.hi}]")

    def baseline(self) -> float:
        """A reference point inside the domain (0 or the interval midpoint)."""
        if self.kind == "bounded":
            return 0.5 * (self.lo + self.hi)
        return 0.0


class VarietyChart:
    """A parametrization U subset R^d -> R^n with its volume density."""

    __slots__ = (
        "kind", "ambient_dim", "domains", "_embed", "_density", "chart_id",
    )

    def __init__(self, kind, ambient_dim, domains, embed, density, chart_id):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "domains", tuple(domains))
        object.__setattr__(self, "_embed", embed)
        object.__setattr__(self, "_density", density)
        object.__setattr__(self, "chart_id", chart_id)
        if self.intrinsic_dim > self.ambient_dim:
            raise ChartError(
                f"intrinsic dimension {self.intrinsic_dim} exceeds ambient "
                f"dimension {self.ambient_dim}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("VarietyChart is immutable")

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
                        embed, density, f"euclidean(n={n})")


def _require_univariate(p: MultiPoly, name: str) -> MultiPoly:
    if p.ambient_dim != 1:
        raise ChartError(f"{name} must be a univariate polynomial, "
                         f"got ambient dimension {p.ambient_dim}")
    return p


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
    """
    comps = [_require_univariate(c, f"component {i}") for i, c in enumerate(components)]
    derivs = [c.partial(0) for c in comps]
    n = 1 + len(comps)
    dom, dom_id = _base_domain(domain)

    def embed(U):
        x = U[:, 0]
        cols = [x] + [np.real(c.eval(x.reshape(-1, 1))) for c in comps]
        return np.stack(cols, axis=1)

    def density(U):
        x = U[:, 0].reshape(-1, 1)
        acc = np.ones(U.shape[0])
        for d in derivs:
            val = np.real(d.eval(x))
            acc = acc + val * val
        return np.sqrt(acc)

    texts = ",".join(c.to_text() for c in comps)
    return VarietyChart("graph", n, (dom,), embed, density,
                        f"graph([{texts}],{dom_id})")


def _check_profile_positive(f: MultiPoly, dom: ParamDomain) -> None:
    """Reject f unless it is positive on the whole domain.

    The minimum of f on an interval is at a root of f' or at an end point,
    so f is evaluated at the real parts of the roots of f' in the domain and
    at the ends of a bounded domain.  On R, f must also be a positive
    constant or have even degree and a positive leading coefficient.
    """
    c = np.zeros(max(f.degree, 0) + 1)
    for mono, coeff in f.terms.items():
        c[mono.exponents[0]] = np.real(coeff)
    p = np.poly1d(c[::-1])  # drops zero leading coefficients
    pts = np.real(p.deriv().roots)
    if dom.kind == "bounded":
        pts = np.append(pts[(pts >= dom.lo) & (pts <= dom.hi)], [dom.lo, dom.hi])
    elif p.order % 2 or p.coeffs[0] <= 0:
        raise ChartError(f"revolution profile f = {f.to_text()} is not positive on R")
    # the baseline point settles a constant f, whose f' has no roots
    low = float(np.min(p(np.append(pts, dom.baseline()))))
    if low <= 0:
        raise ChartError("revolution profile f must be positive on the parameter "
                         f"domain; minimum {low:.6g}")


def chart_revolution(f: MultiPoly, h: MultiPoly, u1_domain=None) -> VarietyChart:
    """Revolution surface (f(u1) cos u2, f(u1) sin u2, h(u1)) in R^3.

    Density f * sqrt(f'^2 + h'^2).  The profile f must be positive; this is
    checked exactly, at the roots of f' and at the domain ends.
    """
    f = _require_univariate(f, "f")
    h = _require_univariate(h, "h")
    dom1, dom_id = _base_domain(u1_domain)
    _check_profile_positive(f, dom1)
    fp, hp = f.partial(0), h.partial(0)

    def embed(U):
        u1 = U[:, 0].reshape(-1, 1)
        fv = np.real(f.eval(u1))
        hv = np.real(h.eval(u1))
        return np.stack([fv * np.cos(U[:, 1]), fv * np.sin(U[:, 1]), hv], axis=1)

    def density(U):
        u1 = U[:, 0].reshape(-1, 1)
        fv = np.real(f.eval(u1))
        fpv = np.real(fp.eval(u1))
        hpv = np.real(hp.eval(u1))
        return fv * np.sqrt(fpv * fpv + hpv * hpv)

    return VarietyChart("revolution", 3, (dom1, ParamDomain("periodic")), embed, density,
                        f"revolution(f={f.to_text()},h={h.to_text()},u1={dom_id})")


def chart_modulus_graph(F: MultiPoly) -> VarietyChart:
    """The surface (x, y, |F(z)|) over z = x + iy for a complex polynomial F.

    Density sqrt(1 + |F'(z)|^2).  |F| is not smooth at zeros of F, but those
    form a null set and the direct formulas below stay finite there.
    """
    F = _require_univariate(F, "F")
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
                        embed, density, f"modulus_graph(F={F.to_text()})")


def chart_circle() -> VarietyChart:
    """The parametric unit circle (cos u, sin u) in R^2 (compact, algebraic)."""

    def embed(U):
        return np.stack([np.cos(U[:, 0]), np.sin(U[:, 0])], axis=1)

    def density(U):
        return np.ones(U.shape[0])

    return VarietyChart("circle", 2, (ParamDomain("periodic"),), embed, density, "circle()")


# ------------------------------------------------------------------ truncation solve


_BOUND_SAMPLES = 10000
_BOUND_PAD = 0.1


def solve_param_bound(chart: VarietyChart, dim: int, radius: float):
    """Interval [lo, hi] on parameter axis ``dim`` covering {r^2 <= radius^2}.

    Samples r^2 along the axis (other parameters at their
    domain baselines), takes the outermost crossing of radius^2 on each
    side and pads it by ``_BOUND_PAD``.  The chart's r^2 eventually
    grows along any unbounded direction, so a doubling search finds a
    bracket.
    """
    if chart.domains[dim].kind != "unbounded":
        raise ValueError("parameter bounds are only solved for unbounded dimensions")
    base = np.array([d.baseline() for d in chart.domains])
    r2cap = float(radius) ** 2

    def radial_along(ts):
        U = np.tile(base, (ts.size, 1))
        U[:, dim] = ts
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
            raise GrowthError(
                f"chart misses the ball of radius {radius:g} along parameter {dim}"
            )
        out.append(sign * ts[inside[-1]] * (1.0 + _BOUND_PAD))
    hi, lo = out
    return lo, hi


# ------------------------------------------------------------------ volume growth


@dataclass(frozen=True)
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
    dom = chart.domains[dim]
    if dom.kind == "periodic":
        lo, hi = 0.0, 2.0 * math.pi
    elif dom.kind == "bounded":
        lo, hi = dom.lo, dom.hi
    else:
        lo, hi = solve_param_bound(chart, dim, r_max)
    h = (hi - lo) / npts
    return lo + h * (np.arange(npts) + 0.5), h


def _measure_volumes(chart: VarietyChart, radii: np.ndarray) -> np.ndarray:
    """Riemannian volume of M cap B_r for each r, on one fixed grid.

    The grid is built and measured in slabs of about ``_GROWTH_BLOCK`` nodes
    along its first axis.  Each node's weight goes into the shell of the
    first radius whose ball holds it (r^2 <= radius^2), and the volumes are
    the running sums of the shells, so they never decrease.
    """
    r_max = float(radii[-1])
    if chart.kind in ("revolution", "circle"):
        # density and radius do not depend on the angular parameter, so the
        # measurement is one-dimensional, times one angular cell of 2 pi
        axes = [_growth_axis(chart, 0, r_max, _GROWTH_GRID[1])]
        axes += [(np.zeros(1), 2.0 * math.pi)] * (chart.intrinsic_dim - 1)
    else:
        npts = _GROWTH_GRID.get(chart.intrinsic_dim, 65)
        axes = [_growth_axis(chart, dim, r_max, npts)
                for dim in range(chart.intrinsic_dim)]
    first = axes[0][0]
    # the grid with the first parameter at 0; a slab repeats it per first node
    mesh = np.meshgrid(np.zeros(1), *[a[0] for a in axes[1:]], indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=1)
    step = max(1, _GROWTH_BLOCK // base.shape[0])
    shells = np.zeros(radii.size + 1)  # the last shell lies outside every ball
    for start in range(0, first.size, step):
        lead = first[start:start + step]
        U = np.tile(base, (lead.size, 1))
        U[:, 0] = np.repeat(lead, base.shape[0])
        dens = chart.volume_density(U)
        if not np.all(np.isfinite(dens)):
            raise GrowthError("non-finite volume density sample")
        shell = np.searchsorted(radii * radii, chart.radial_sq(U), side="left")
        shells += np.bincount(shell, weights=dens, minlength=radii.size + 1)
    return np.cumsum(shells[:-1]) * math.prod(a[1] for a in axes)


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


_SPEC_KEYS = {"kind", "f", "h", "F", "components", "n", "u1_domain"}
_REQUIRED = {
    "euclidean": {"n"},
    "graph": {"components"},
    "revolution": {"f", "h"},
    "modulus_graph": {"F"},
    "circle": set(),
}
_OPTIONAL = {
    "euclidean": set(),
    "graph": {"u1_domain"},
    "revolution": {"u1_domain"},
    "modulus_graph": set(),
    "circle": set(),
}


def _spec_poly(text, label: str) -> MultiPoly:
    if not isinstance(text, str):
        raise SpecFileError(f"{label} must be a polynomial text string")
    try:
        return parse_poly(text, ambient_dim=1)
    except ValueError as exc:
        raise SpecFileError(f"cannot parse polynomial {label}={text!r}: {exc}") from exc


def _parse_domain(value):
    if value == "unbounded" or value is None:
        return None
    if (isinstance(value, (list, tuple)) and len(value) == 2
            # bool is an int subclass, but JSON true/false are not numbers
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        lo, hi = float(value[0]), float(value[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SpecFileError(f"u1_domain bounds must be finite, got {value}")
        if not lo < hi:
            raise SpecFileError(f"u1_domain needs lo < hi, got {value}")
        return (lo, hi)
    raise SpecFileError(f"u1_domain must be 'unbounded' or [lo, hi], got {value!r}")


def load_chart(spec) -> VarietyChart:
    """Build a chart from a spec dict or a JSON file path.

    The schema is fixed: {"kind": ..., "f": ..., "h": ..., "F": ...,
    "components": [...], "n": ..., "u1_domain": ...} with polynomials in
    the text format of :mod:`gaussvar.polyring`.  Which keys are required
    depends on the kind; unknown keys are rejected.
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
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecFileError(f"unknown keys in variety spec: {sorted(unknown)}")
    kind = spec.get("kind")
    if kind not in _REQUIRED:
        raise SpecFileError(
            f"kind must be one of {sorted(_REQUIRED)}, got {kind!r}"
        )
    given = set(spec) - {"kind"}
    missing = _REQUIRED[kind] - given
    if missing:
        raise SpecFileError(f"kind {kind!r} requires keys {sorted(missing)}")
    extra = given - _REQUIRED[kind] - _OPTIONAL[kind]
    if extra:
        raise SpecFileError(f"keys {sorted(extra)} do not apply to kind {kind!r}")

    try:
        if kind == "euclidean":
            n = spec["n"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise SpecFileError(f"n must be a positive integer, got {n!r}")
            return chart_euclidean(n)
        if kind == "graph":
            comps = spec["components"]
            if not isinstance(comps, list):
                raise SpecFileError("components must be a list of polynomial texts")
            parsed = [_spec_poly(text, f"components[{i}]") for i, text in enumerate(comps)]
            return chart_graph(parsed, domain=_parse_domain(spec.get("u1_domain")))
        if kind == "revolution":
            f, h = _spec_poly(spec["f"], "f"), _spec_poly(spec["h"], "h")
            return chart_revolution(f, h, u1_domain=_parse_domain(spec.get("u1_domain")))
        if kind == "modulus_graph":
            return chart_modulus_graph(_spec_poly(spec["F"], "F"))
        return chart_circle()
    except ChartError as exc:
        raise SpecFileError(f"invalid chart: {exc}") from exc
