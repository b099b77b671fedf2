"""Sup-norm bound C_m for the weighted truncated-exponential error.

For a fixed wavevector k, the degree-(m-1) Taylor partial sum p_m of
exp(i<k, x>) satisfies

    sup_x | e^{-|x|^2} (p_m(x) - e^{i<k,x>}) |  <=  C_m
    C_m = sup_{y >= 0} (y^m / m!) e^{y - y^2/k^2},        y = |k| |x|,

and C_m -> 0 as m grows.  This module evaluates C_m three ways: through
the closed form obtained by maximizing in y, through Newton's method on the
stationarity condition (independent of the closed form; concavity
certifies its stationary point as the global maximum), and through the
large-m asymptotic exponent C*_m.  All arithmetic runs in log space
(log-gamma instead of factorials), so values are meaningful far past the
point where m! overflows double precision.

Every function of the bound takes (k, m) from one domain: k > 0 with k**4
a finite normal double (:func:`check_k`), and m an integer in [1, 2**53).
There each returns a finite value, or raises OverflowError naming k and m
where C_m itself overflows a double; outside it each raises ValueError
naming k and m.  None returns NaN, nor a 0 or inf that comes from an
overflowed intermediate.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .polyring import squared_norms

__all__ = [
    "CmRecord",
    "alpha_gap",
    "check_k",
    "cm_closed_form",
    "log_cm",
    "cm_brute",
    "cstar",
    "cm_record",
    "cm_table",
    "records_to_csv",
    "uniform_error",
    "weighted_error",
    "default_error_grid",
]

_M_END = 2 ** 53  # every order below it, and m + 1, is exact as a double
_NORMAL_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max
_NEWTON_STEPS = 100


def check_k(k) -> float:
    """``k`` as a float if it lies in the lemma's domain, else ValueError.

    The domain is k > 0 with k**4 a finite normal double.  The closed form
    squares its maximizer w, which is about k^2/2 for large k and
    k sqrt(m/2) for small k; on this domain neither k^2 nor w^2 overflows
    or loses precision to underflow.
    """
    k2 = k * k
    if not (k > 0 and _NORMAL_MIN <= k2 * k2 <= _FLOAT_MAX):  # NaN fails both
        raise ValueError(f"wavevector length must be positive with k**4 a finite "
                         f"normal double, got k={k}")
    return float(k)


def _check_order(k, m, m_min: int = 1) -> int:
    """``m`` as an int if it is an integer in [m_min, 2**53), else ValueError naming k and m."""
    try:  # operator.index admits Python and numpy ints only, as for polyring's exponents
        order = operator.index(m)
    except TypeError:
        order = None
    if order is None or isinstance(m, bool):
        raise ValueError(f"order m must be an integer, got m={m!r} at k={k}")
    if not m_min <= order < _M_END:
        raise ValueError(f"order m must be in [{m_min}, 2**53), got m={order} at k={k}")
    return order


def _check_km(k, m, m_min: int = 1) -> tuple[float, int]:
    """(k, m) as (float, int) if they lie in the lemma's domain, else ValueError."""
    order = _check_order(k, m, m_min)
    try:
        return check_k(k), order
    except ValueError as exc:
        raise ValueError(f"{exc}, m={order}") from None


def _maximizer(k: float, m: int) -> float:
    """w = k^2/4 + (k/4) sqrt(k^2 + 8m), where (y^m / m!) e^{y - y^2/k^2} peaks."""
    return k * k / 4.0 + (k / 4.0) * math.sqrt(k * k + 8.0 * m)


def log_cm(k: float, m: int) -> float:
    """ln C_m from the closed form.

    With w = k^2/4 + (k/4) sqrt(k^2 + 8m) (the maximizer in y),
    C_m = (1/m!) w^m exp(w - w^2/k^2), so
    ln C_m = m ln w - lgamma(m+1) + w - w^2/k^2.  This stays finite where
    C_m itself underflows (k = 1 from m of about 300).
    """
    k, m = _check_km(k, m)
    w = _maximizer(k, m)
    return m * math.log(w) - math.lgamma(m + 1.0) + w - w * w / (k * k)


def _exp_cm(k: float, m: int, log: float) -> float:
    """C_m = exp(``log``); an overflow names k, m and ln C_m."""
    try:
        return math.exp(log)
    except OverflowError:
        raise OverflowError(f"C_m overflows a double at k={k:g}, m={m}: "
                            f"ln C_m = {log:.6g}") from None


def cm_closed_form(k: float, m: int) -> float:
    """C_m from its closed form, exp(:func:`log_cm`)."""
    return _exp_cm(k, m, log_cm(k, m))


def _newton_peak(k: float, m: int) -> tuple[float, float]:
    """(y*, g(y*)) for the maximum of g(y) = m ln y - lgamma(m+1) + y - y^2/k^2.

    g''(y) = -m/y^2 - 2/k^2 < 0 on y > 0, so g is strictly concave and its
    one stationary point y* is the global maximum; concavity certifies it,
    and no search over y is needed.  y* is the root of
    g'(y) = m/y + 1 - 2y/k^2, which is decreasing and convex
    (g''' = 2m/y^3 > 0).  Newton's method from any y0 above the root lands
    at or below it on the first step, because a convex function lies above
    its tangent, and from there its iterates rise monotonically to the
    root.  Every iterate is positive: y - g'(y)/g''(y) equals
    (2m + y) / (m/y + 2y/k^2).  So the run starts above the root, from
    y0 = k^2/2 + k sqrt(m/2), where m/y0 <= sqrt(2m)/k and so g'(y0) <= 0,
    and stops when an iterate no longer rises.

    It runs in s = y/k, which gives the same iterates since
    g'(ks) = (m/s + k - 2s)/k, and in which no intermediate is as large as
    y^2 (up to k^4/4) or as small as k^2.
    """
    s = k / 2.0 + math.sqrt(m / 2.0)
    for step in range(_NEWTON_STEPS):
        nxt = s + (m / s + k - 2.0 * s) / (m / (s * s) + 2.0)
        if step and not nxt > s:  # the first step falls, every later one rises
            return k * s, m * math.log(k * s) - math.lgamma(m + 1.0) + s * (k - s)
        s = nxt
    raise RuntimeError(f"Newton's method on g' did not converge in {_NEWTON_STEPS} "
                       f"steps at k={k:g}, m={m}")


def cm_brute(k: float, m: int) -> float:
    """C_m = exp(g(y*)), with the maximizer y* of g(y) = m ln y - lgamma(m+1)
    + y - y^2/k^2 found by Newton's method on g'.

    g is strictly concave on y > 0, so its stationary point is its global
    maximum (``_newton_peak`` states the argument).  Neither the closed form
    nor a grid over y is used, so this is an independent check of
    :func:`cm_closed_form`.
    """
    k, m = _check_km(k, m)
    return _exp_cm(k, m, _newton_peak(k, m)[1])


def cstar(k: float, m: int) -> float:
    """Asymptotic exponent: C_m ~ exp(C*_m) up to bounded corrections.

    C*_m = m ln(k^2/4 + (k/4) sqrt(k^2 + 8m)) + (k / (2 sqrt 2)) sqrt(m)
           + m/2 - m ln m - (1/2) ln m.
    """
    k, m = _check_km(k, m, m_min=2)
    return (m * math.log(_maximizer(k, m)) + (k / (2.0 * math.sqrt(2.0))) * math.sqrt(m)
            + m / 2.0 - m * math.log(m) - 0.5 * math.log(m))


def alpha_gap(k: float, m: int) -> float:
    """Empirical gap ln(k^2/4 + (k/4) sqrt(k^2 + 8m)) - (1/2) ln m.

    The asymptotic argument replaces the left term by (1/2) ln m plus some
    constant; that constant is never fixed, so only boundedness of this gap
    in m is ever asserted.
    """
    k, m = _check_km(k, m)
    return math.log(_maximizer(k, m)) - 0.5 * math.log(m)


@dataclass(frozen=True)
class CmRecord:
    """The bound for one (k, m): closed form, brute-force sup, asymptote."""

    k: float
    m: int
    cm_closed: float
    cm_brute: float
    cstar: float


def cm_record(k: float, m: int) -> CmRecord:
    k, m = _check_km(k, m)
    return CmRecord(
        k=k, m=m,
        cm_closed=cm_closed_form(k, m),
        cm_brute=cm_brute(k, m),
        cstar=cstar(k, m) if m >= 2 else float("nan"),
    )


def cm_table(k_values, m_values) -> list[CmRecord]:
    return [cm_record(k, m) for k in k_values for m in m_values]


def records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("k,m,cm_closed,cm_brute,cstar\n")
        for r in records:
            fh.write(
                f"{r.k:.17g},{r.m},{r.cm_closed:.17g},"
                f"{r.cm_brute:.17g},{r.cstar:.17g}\n"
            )


# ------------------------------------------------------------------ grid error


def default_error_grid(k, num: int = 100000) -> np.ndarray:
    """Points along the k-axis where the weighted error attains its sup.

    The error depends on x only through <k, x> and |x|, and the supremum is
    attained with x parallel to k, so log-spaced radii on that axis (plus
    the origin) out to 20/|k| + 20, comfortably past the maximizer, suffice.
    """
    k = np.asarray(k, dtype=float)
    norm = math.sqrt(sum(c * c for c in k.tolist()))
    if norm == 0:
        raise ValueError("the zero wavevector has no preferred axis")
    if not math.isfinite(norm):
        raise ValueError(f"wavevector must have a finite length, got k={k.tolist()}")
    radius = 20.0 / norm + 20.0
    radii = np.concatenate([[0.0], np.logspace(-3.0, math.log10(radius), num)])
    return radii[:, None] * (k / norm)[None, :]


def weighted_error(k, m: int, grid) -> np.ndarray:
    """Pointwise |e^{-|x|^2} (p_m(x) - e^{i<k,x>})| on the grid.

    The difference is the Taylor remainder sum_{a >= m} (iy)^a / a! with
    y = <k, x>.  Where |y|^m / m! <= 1 that series has decreasing terms and
    is summed directly (no cancellation, full relative accuracy down to the
    underflow limit); elsewhere the partial sum and the exponential are
    subtracted, which is benign there because the bound itself exceeds the
    e^{|y| - |x|^2} round-off scale.
    """
    k = np.asarray(k, dtype=float)
    m = _check_order(k.tolist(), m)
    if not np.all(np.isfinite(k)):
        raise ValueError(f"wavevector must be finite, got k={k.tolist()}, m={m}")
    X = np.asarray(grid, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.size == 0:
        raise ValueError("empty sample grid")
    if X.shape[1] != k.size:
        raise ValueError(
            f"grid dimension {X.shape[1]} does not match wavevector dimension {k.size}"
        )
    y = X @ k
    r2 = squared_norms(X)
    out = np.zeros(y.size)
    ay = np.abs(y)
    with np.errstate(divide="ignore"):
        log_first = m * np.log(ay) - math.lgamma(m + 1.0)
    tail_side = log_first <= 0.0

    if np.any(tail_side):
        ys = y[tail_side]
        z = 1j * ys
        # first tail term (iy)^m / m!, built in log magnitude
        mag = np.exp(m * np.log(np.abs(ys), where=ys != 0,
                                out=np.full(ys.shape, -np.inf)) - math.lgamma(m + 1.0))
        phase = np.where(ys != 0, (1j * np.sign(ys)) ** m, 0.0)
        term = mag * phase
        total = term.copy()
        for a in range(m, m + 2000):
            term = term * z / (a + 1.0)
            total += term
            if np.all(np.abs(term) <= 1e-30 * (np.abs(total) + 1e-300)):
                break
        out[tail_side] = np.exp(-r2[tail_side]) * np.abs(total)

    direct = ~tail_side
    if np.any(direct):
        yd = y[direct]
        z = 1j * yd
        term = np.ones(yd.size, dtype=complex)
        partial = np.ones(yd.size, dtype=complex)
        for a in range(1, m):
            term = term * z / a
            partial += term
        diff = partial - np.exp(1j * yd)
        out[direct] = np.exp(-r2[direct]) * np.abs(diff)
    return out


def uniform_error(k, m: int, grid) -> float:
    """Grid maximum of the weighted error modulus."""
    return float(np.max(weighted_error(k, m, grid)))
