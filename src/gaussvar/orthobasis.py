"""Orthonormal polynomial bases of a chart's coordinate ring.

The inner product is <p, q> = integral p * q * e^{-r^2} dmu (or plain dmu
with the Gaussian weight switched off).  The Gram matrix of the monomials is
a moment matrix, <x^a, x^b> = integral x^(a+b), and is stored as one: every
pair with the same exponent sum holds the same double, so ``gram.csv``
formats each of its few distinct values once.  Restricted monomials can become
linearly dependent through the relations of the variety -- on the unit
circle x^2 + y^2 = 1 kills one of the six degree-2 monomials -- so the
basis is extracted by a threshold Cholesky elimination on the Gram matrix
that processes monomials in graded lexicographic order and drops any whose
squared residual against the span of its kept predecessors is at most
rank_tol times its diagonal Gram entry.  The kept set is therefore
deterministic: a dependent monomial is always the later one in the order.

A monomial's fate depends only on its predecessors, so the degree-D basis
is the leading block of the degree-D_max basis (the prefix property): one
Gram matrix and one elimination at D_max serve a whole degree sweep, and
:func:`project` reports every D <= D_max at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyring import MultiPoly, monomial_values, monomials_up_to_degree
from .quadrature import (
    QuadRule, QuadratureError, build_rule, choose_truncation, discretize,
)
from .variety import VarietyChart, chart_euclidean, chart_graph, estimate_growth

__all__ = [
    "GramBasis",
    "ProjectionReport",
    "RecoveryReport",
    "gram_matrix",
    "orthonormalize",
    "project",
    "basis_inner_products",
    "weighted_equivalence_check",
    "classic_recovery",
    "basis_to_csv",
    "gram_to_csv",
    "projections_to_csv",
]


@dataclass(frozen=True)
class GramBasis:
    """Gram matrix of restricted monomials, plus the extracted basis.

    Before :func:`orthonormalize` only the Gram data is present; afterwards
    ``ortho_coeffs`` holds one row per basis element, giving its expansion
    in the ambient monomials (columns follow ``monomials``; entries outside
    ``kept_indices`` are zero).
    """

    chart: VarietyChart
    degree_cap: int
    monomials: tuple
    gram: np.ndarray
    weight: str
    rank: int | None = None
    kept_indices: tuple | None = None
    ortho_coeffs: np.ndarray | None = None

    @property
    def chart_id(self) -> str:
        return self.chart.chart_id

    def is_orthonormalized(self) -> bool:
        return self.ortho_coeffs is not None

    def basis_polynomials(self) -> list[MultiPoly]:
        """The basis elements as ambient polynomials."""
        if not self.is_orthonormalized():
            raise ValueError("basis not extracted yet; call orthonormalize first")
        out = []
        n = self.chart.ambient_dim
        for row in self.ortho_coeffs:
            terms = {m: c for m, c in zip(self.monomials, row) if c != 0}
            out.append(MultiPoly(n, terms))
        return out


_NODE_BLOCK = 2 ** 13  # quadrature nodes whose monomial values are held at once


def _node_blocks(count: int):
    """Consecutive slices of at most ``_NODE_BLOCK`` of ``count`` nodes."""
    return (slice(a, a + _NODE_BLOCK) for a in range(0, count, _NODE_BLOCK))


def _first_pair_of_sum(monomials, degree_cap: int) -> np.ndarray:
    """Flat index of the first pair, in row-major order, with each pair's exponent sum.

    Exponent sums have entries <= 2D, so the codes ``label * (2D+1) + a_c + b_c``
    built one coordinate at a time number them exactly; when the code range
    outgrows N^2 the codes are renumbered densely, so the table of first
    indices is never larger than G.  One ``np.minimum.at`` fills that table.
    """
    A = np.array([m.exponents for m in monomials], dtype=np.int64)
    N, base = A.shape[0], 2 * degree_cap + 1
    label, size = np.zeros(N * N, dtype=np.int64), 1
    for a in A.T:
        label = label * base + (a[:, None] + a).ravel()
        size *= base
        if size > N * N:
            _, label = np.unique(label, return_inverse=True)
            size = int(label.max()) + 1
    first = np.full(size, N * N)
    np.minimum.at(first, label, np.arange(N * N))
    return first[label]


def gram_matrix(chart: VarietyChart, degree_cap: int, rule: QuadRule,
                weight: str = "gauss") -> GramBasis:
    """Pairwise inner products of all restricted monomials of degree <= D.

    Summed over blocks of ``_NODE_BLOCK`` nodes, one block of values at a time.
    G is a moment matrix, <x^a, x^b> = integral x^(a+b), so after the sums are
    checked for non-finite values every entry is set to the sum of the first
    pair, in row-major order, with its exponent sum a + b.  Equal moments are
    then one double, and G stays exactly symmetric (that pair has i <= j).
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    monomials = tuple(monomials_up_to_degree(chart.ambient_dim, degree_cap))
    disc = discretize(chart, rule)
    sqrt_w = np.sqrt(disc.weights(weight))
    G = np.zeros((len(monomials), len(monomials)))
    with np.errstate(over="ignore", invalid="ignore"):  # G is checked below
        for s in _node_blocks(disc.X.shape[0]):
            E = monomial_values(monomials, disc.X[s])
            E *= sqrt_w[s]
            G += E @ E.T  # a symmetric rank-k update: every block is exactly symmetric
    if not np.all(np.isfinite(G)):
        i, j = np.argwhere(~np.isfinite(G))[0]
        raise QuadratureError(
            f"non-finite Gram entry for monomial pair "
            f"({monomials[i]}, {monomials[j]})"
        )
    G = G.ravel()[_first_pair_of_sum(monomials, degree_cap)].reshape(G.shape)
    return GramBasis(
        chart=chart, degree_cap=degree_cap, monomials=monomials,
        gram=G, weight=weight,
    )


def orthonormalize(gb: GramBasis, rank_tol: float = 1e-9) -> GramBasis:
    """Extract the orthonormal basis by graded-lex threshold elimination.

    Rows of C hold the coefficients of the k vectors kept so far and rows of
    GC = C G their Gram images.  Candidate i starts as e_i and takes the
    block step v -= (GC v) C twice: under cancellation one pass leaves parts
    of v along the kept directions, and a second removes them to rounding
    level ("twice is enough").  It is dropped when its squared residual
    v.G.v is at most ``rank_tol`` times G_ii; otherwise it is normalized, and
    G v, already formed for the residual, is scaled into its row of GC.
    """
    if rank_tol <= 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    G = gb.gram
    N = len(gb.monomials)
    C, GC = np.empty((N, N)), np.empty((N, N))
    kept: list[int] = []
    for i in range(N):
        k = len(kept)
        v = np.zeros(N)
        v[i] = 1.0
        for _ in range(2):
            v -= (GC[:k] @ v) @ C[:k]
        Gv = G @ v
        res2 = float(v @ Gv)
        if G[i, i] <= 0 or res2 <= rank_tol * G[i, i]:
            continue
        norm = math.sqrt(res2)
        C[k], GC[k] = v / norm, Gv / norm
        kept.append(i)
    return GramBasis(
        chart=gb.chart, degree_cap=gb.degree_cap, monomials=gb.monomials,
        gram=gb.gram, weight=gb.weight, rank=len(kept),
        kept_indices=tuple(kept), ortho_coeffs=C[:len(kept)].copy(),
    )


@dataclass(frozen=True)
class ProjectionReport:
    """Best approximation of a target function in the degree-D slice."""

    degree_cap: int
    coefficients: np.ndarray
    residual_norm: float
    f_norm: float

    @property
    def rel_residual(self) -> float:
        return self.residual_norm / self.f_norm


def project(gb: GramBasis, f, rule: QuadRule) -> list[ProjectionReport]:
    """Project ``f`` onto every nested degree slice.

    ``f`` is a function of the ambient point, called on the embedded nodes
    X of shape (N, n).  Report D, for D = 0..gb.degree_cap, uses the
    leading basis elements whose kept monomial has degree <= D: the basis a
    degree-D Gram matrix gives.  Its residual norm is the quadrature norm of
    f - sum_k c_k b_k, updated one degree block at a time; unlike
    sqrt(<f, f> - sum c_k^2) it cannot go negative through cancellation.
    A non-finite target sample, squared norm of f or squared residual
    raises :class:`QuadratureError`.

    The basis values b_k are formed for ``_NODE_BLOCK`` nodes at a time, in
    two passes over the blocks: the first sums the coefficients c_k; the
    second, run backwards from the last block, whose values the first still
    holds, forms the residual on each block and sums its squares per degree.
    """
    if not gb.is_orthonormalized():
        raise ValueError("basis not extracted yet; call orthonormalize first")
    disc = discretize(gb.chart, rule)
    W, X = disc.weights(gb.weight), disc.X
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        fvals = np.asarray(f(X), dtype=float)
    if not np.all(np.isfinite(fvals)):
        i = int(np.nonzero(~np.isfinite(fvals))[0][0])
        raise QuadratureError(
            f"non-finite target sample at node {i}, parameters "
            f"{rule.points[i].tolist()}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # both norms are checked below
        C, Wf = gb.ortho_coeffs, W * fvals
        blocks = list(_node_blocks(X.shape[0]))
        coeffs = np.zeros(C.shape[0])
        for s in blocks:
            B = C @ monomial_values(gb.monomials, X[s])
            coeffs += B @ Wf[s]
        f_norm2 = float(np.sum(Wf * fvals))
        kept_degrees = [gb.monomials[i].degree for i in gb.kept_indices]
        ends = np.searchsorted(kept_degrees, np.arange(gb.degree_cap + 1), side="right")
        parts = np.zeros((len(blocks), gb.degree_cap + 1))
        for b, s in reversed(list(enumerate(blocks))):
            if b < len(blocks) - 1:
                B = C @ monomial_values(gb.monomials, X[s])
            diff = fvals[s]
            for D, (start, end) in enumerate(zip([0, *ends], ends)):
                diff = diff - coeffs[start:end] @ B[start:end]
                parts[b, D] = np.sum(W[s] * diff * diff)
        res2 = sum(parts)  # row by row in block order, as the first pass adds
    if not math.isfinite(f_norm2):
        raise QuadratureError(f"non-finite squared target norm {f_norm2}")
    if not np.all(np.isfinite(res2)):
        D = int(np.nonzero(~np.isfinite(res2))[0][0])
        raise QuadratureError(f"non-finite squared residual {res2[D]} at degree {D}")
    f_norm = math.sqrt(f_norm2)
    return [ProjectionReport(degree_cap=D, coefficients=coeffs[:end],
                             residual_norm=math.sqrt(max(float(r2), 0.0)), f_norm=f_norm)
            for D, (end, r2) in enumerate(zip(ends, res2))]


def basis_inner_products(gb: GramBasis, rule: QuadRule) -> np.ndarray:
    """Re-integrate <b_i, b_j> with an independent rule (verification aid)."""
    if not gb.is_orthonormalized():
        raise ValueError("basis not extracted yet; call orthonormalize first")
    disc = discretize(gb.chart, rule)
    sqrt_w = np.sqrt(disc.weights(gb.weight))
    G = np.zeros((gb.rank, gb.rank))
    for s in _node_blocks(disc.X.shape[0]):
        B = gb.ortho_coeffs @ monomial_values(gb.monomials, disc.X[s])
        B *= sqrt_w[s]
        G += B @ B.T
    return G


# ------------------------------------------------------------------ equivalence


def weighted_equivalence_check(chart: VarietyChart, p: MultiPoly, f,
                               rule: QuadRule, rule_rhs: QuadRule | None = None):
    """Evaluate both sides of the weighted approximation identity.

    Left side: integral |f e^{-r^2/4} - p e^{-r^2/4}|^2 e^{-r^2/2} dmu,
    right side: integral |f - p|^2 e^{-r^2} dmu, each with its own
    quadrature pass (``rule_rhs`` defaults to ``rule``).  ``f`` and ``p``
    are both evaluated on the embedded nodes X (N, n).
    """
    disc = discretize(chart, rule)
    damp = np.exp(-0.25 * disc.r2)
    with np.errstate(over="ignore", invalid="ignore"):  # integrate checks them
        diff = np.asarray(f(disc.X)) * damp - np.real(p.eval(disc.X)) * damp
        lhs_vals = diff * diff
    lhs = float(disc.integrate(lhs_vals, scale=0.5))
    disc = discretize(chart, rule_rhs or rule)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.asarray(f(disc.X)) - np.real(p.eval(disc.X))
        rhs_vals = diff * diff
    rhs = float(disc.integrate(rhs_vals))
    return lhs, rhs


# ------------------------------------------------------------------ classics


def _hermite_coeffs(degree_cap: int) -> np.ndarray:
    """Normalized Hermite coefficients (weight e^{-x^2}), row k = degree k."""
    rows = [np.array([1.0]), np.array([0.0, 2.0])]
    for k in range(1, degree_cap):
        nxt = np.zeros(k + 2)
        nxt[1:] = 2.0 * rows[k]
        nxt[: len(rows[k - 1])] -= 2.0 * k * rows[k - 1]
        rows.append(nxt)
    out = np.zeros((degree_cap + 1, degree_cap + 1))
    for k in range(degree_cap + 1):
        norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        out[k, : k + 1] = rows[k] / norm
    return out


def _legendre_coeffs(degree_cap: int) -> np.ndarray:
    """Normalized Legendre coefficients (weight 1 on [-1, 1])."""
    rows = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(1, degree_cap):
        nxt = np.zeros(k + 2)
        nxt[1:] = (2.0 * k + 1.0) * rows[k]
        nxt[: len(rows[k - 1])] -= k * rows[k - 1]
        rows.append(nxt / (k + 1.0))
    out = np.zeros((degree_cap + 1, degree_cap + 1))
    for k in range(degree_cap + 1):
        out[k, : k + 1] = rows[k] * math.sqrt((2.0 * k + 1.0) / 2.0)
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """Comparison of the computed basis against a classical family."""

    kind: str
    degree_cap: int
    computed: np.ndarray
    max_rel_coeff_err: float
    matched: bool


def classic_recovery(kind: str, degree_cap: int = 6) -> RecoveryReport:
    """Recover the Hermite or Legendre family from the generic machinery.

    ``hermite``: euclidean chart on R with the Gaussian weight;
    ``legendre``: the interval [-1, 1] (a graph chart with no components)
    with the weight switched off.  Rows are sign-fixed so the leading
    coefficient is positive before comparing.
    """
    if kind == "hermite":
        chart = chart_euclidean(1)
        growth = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
        R = choose_truncation(growth, 2 * degree_cap, 1e-12)
        rule = build_rule(chart, R)
        gb = orthonormalize(gram_matrix(chart, degree_cap, rule, weight="gauss"))
        reference = _hermite_coeffs(degree_cap)
    elif kind == "legendre":
        chart = chart_graph([], domain=(-1.0, 1.0))
        rule = build_rule(chart, 2)
        gb = orthonormalize(gram_matrix(chart, degree_cap, rule, weight="none"))
        reference = _legendre_coeffs(degree_cap)
    else:
        raise ValueError(f"kind must be 'hermite' or 'legendre', got {kind!r}")
    computed = gb.ortho_coeffs.copy()
    for k in range(computed.shape[0]):
        if computed[k, gb.kept_indices[k]] < 0:
            computed[k] = -computed[k]
    ref_nz = np.abs(reference) > 0
    rel = np.abs(computed - reference)[ref_nz] / np.abs(reference)[ref_nz]
    spurious = np.abs(computed)[~ref_nz]
    max_rel = float(rel.max())
    max_spur = float(spurious.max()) if spurious.size else 0.0
    matched = (computed.shape == reference.shape and max_rel <= 1e-6
               and max_spur <= 1e-7 * float(np.abs(reference).max()))
    return RecoveryReport(kind=kind, degree_cap=degree_cap, computed=computed,
                          max_rel_coeff_err=max_rel, matched=matched)


# ------------------------------------------------------------------ CSV export


def basis_to_csv(gb: GramBasis, path) -> None:
    """One row per nonzero basis coefficient: index, exponents, value.

    Each basis element is one ``%`` call over its nonzero coefficients, on
    a row template joined from cells built once per monomial.
    """
    if not gb.is_orthonormalized():
        raise ValueError("basis not extracted yet; call orthonormalize first")
    cells = [f"@,{' '.join(map(str, m.exponents))},%.17g\n" for m in gb.monomials]
    with open(path, "w", newline="") as fh:
        fh.write("basis_index,monomial_exponents,coefficient\n")
        for k, row in enumerate(gb.ortho_coeffs):
            nz = np.flatnonzero(row)
            template = "".join([cells[j] for j in nz]).replace("@", str(k))
            fh.write(template % tuple(row[nz].tolist()))


def gram_to_csv(gb: GramBasis, path) -> None:
    """One row per Gram entry, ``i,j,value`` in row-major order.

    Values are ``%.17g`` text, which reads back to the same double.  Each
    distinct bit pattern is formatted once (+0.0 and -0.0 stay apart): a
    moment matrix holds one double per exponent sum, far fewer than its N^2
    cells.  The row template is built once per call, with ``@`` for the row
    index, so each matrix row is filled by one ``%`` call and written at once.
    """
    N = len(gb.monomials)
    bits, inverse = np.unique(gb.gram.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    template = "".join([f"@,{j},%s\n" for j in range(N)])
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n")
        for i, row in enumerate(text[inverse].reshape(N, N).tolist()):
            fh.write(template.replace("@", str(i)) % tuple(row))


def projections_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("D,residual_norm,f_norm,rel_residual\n")
        for rep in reports:
            fh.write(
                f"{rep.degree_cap},{rep.residual_norm:.17g},"
                f"{rep.f_norm:.17g},{rep.rel_residual:.17g}\n"
            )
