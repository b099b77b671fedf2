"""Orthonormal polynomial bases of a chart's coordinate ring.

The inner product is <p, q> = integral p * q * e^{-r^2} dmu (or plain dmu
with the Gaussian weight switched off).  The Gram matrix of the monomials is
a moment matrix, <x^a, x^b> = integral x^(a+b), and is stored as one: every
pair with the same exponent sum a + b holds the same double.  The pairs'
exponent-sum classes depend on the monomials alone and are computed once per
monomial tuple; :func:`gram_matrix` canonicalizes G through them, and
``gram.csv`` formats each class's value once.  Restricted monomials can become
linearly dependent through the relations of the variety -- on the unit
circle x^2 + y^2 = 1 kills one of the six degree-2 monomials -- so the
basis is extracted by a threshold elimination on the Gram matrix that
processes monomials in graded lexicographic order and drops any whose
squared residual against the span of its kept predecessors is at most
rank_tol times its diagonal Gram entry.  The kept set is therefore
deterministic: a dependent monomial is always the later one in the order.
A monomial with a dropped divisor x^a / x_p is dropped without work, so the
kept monomials form an order ideal.  The work runs one degree at a time:
each degree's candidates are orthogonalized against the kept basis as one
block, by block Gram-Schmidt run twice, and the threshold decisions are made
candidate by candidate inside the block.

A monomial's fate depends only on its predecessors, so the degree-D basis
is the leading block of the degree-D_max basis (the prefix property): one
Gram matrix and one elimination at D_max serve a whole degree sweep, and
:func:`project` reports every D <= D_max at once.  It never forms the basis
values: the coefficients come from the target's moment vector against the
monomials, and each degree's projection is one polynomial in the monomials,
evaluated once per block of :func:`quadrature.node_blocks`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .polyring import MultiPoly, monomial_values, monomials_up_to_degree
from .quadrature import QuadRule, QuadratureError, _block_sum, node_blocks, study_rules
from .variety import VarietyChart, chart_euclidean, chart_graph

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


@dataclass(frozen=True, eq=False)
class GramBasis:
    """Gram matrix of restricted monomials, plus the extracted basis.

    Before :func:`orthonormalize` only the Gram data is present; afterwards
    ``ortho_coeffs`` holds one row per basis element, giving its expansion
    in the ambient monomials (columns follow ``monomials``, the exponent
    tuples in graded-lex order; entries outside ``kept_indices`` are zero).
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

    def basis_coeffs(self) -> np.ndarray:
        """``ortho_coeffs``; ``ValueError`` before :func:`orthonormalize`."""
        if self.ortho_coeffs is None:
            raise ValueError("basis not extracted yet; call orthonormalize first")
        return self.ortho_coeffs

    def basis_polynomials(self) -> list[MultiPoly]:
        """The basis elements as ambient polynomials."""
        out = []
        n = self.chart.ambient_dim
        for row in self.basis_coeffs():
            terms = {m: c for m, c in zip(self.monomials, row) if c != 0}
            out.append(MultiPoly(n, terms))
        return out


def _weighted_gram(chart: VarietyChart, rule: QuadRule, weight: str, rows,
                   size: int) -> np.ndarray:
    """Sum over the node blocks s of R R^T, R = rows(X_s) * sqrt(w_s), from zeros.

    ``rows`` maps a block of embedded nodes to one row of values per
    function; every block's update R R^T is exactly symmetric.
    """
    G = np.zeros((size, size))
    for block in node_blocks(chart, rule):
        R = rows(block.X)
        R *= np.sqrt(block.weights(weight))
        G += R @ R.T
    return G


@functools.lru_cache(maxsize=4)
def _sum_classes(monomials: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The exponent-sum classes of the pairs of ``monomials``, read-only: (classes, reps).

    ``classes[i * N + j]`` numbers the class of a_i + a_j, and ``reps[c]`` is
    the flat index of class c's first pair in row-major order, so
    ``reps[classes]`` maps each cell of G to its class's first pair.  With E
    the largest exponent, sums have entries <= 2E, so the codes
    ``label * (2E+1) + a_c + b_c`` built one coordinate at a time number them
    exactly; when the code range outgrows N^2 the codes are renumbered
    densely, so the table of first indices is never larger than G.  One
    ``np.minimum.at`` fills that table.
    """
    A = np.array(monomials, dtype=np.int64)
    N, base = A.shape[0], 2 * int(A.max(initial=0)) + 1
    label, size = np.zeros(N * N, dtype=np.int64), 1
    for a in A.T:
        label = label * base + (a[:, None] + a).ravel()
        size *= base
        if size > N * N:
            _, label = np.unique(label, return_inverse=True)
            size = int(label.max()) + 1
    first = np.full(size, N * N)
    np.minimum.at(first, label, np.arange(N * N))
    present = first < N * N
    classes = (np.cumsum(present, dtype=np.int32) - 1)[label]
    reps = first[present]
    classes.flags.writeable = reps.flags.writeable = False
    return classes, reps


def gram_matrix(chart: VarietyChart, degree_cap: int, rule: QuadRule,
                weight: str = "gauss") -> GramBasis:
    """Pairwise inner products of all restricted monomials of degree <= D.

    G is a moment matrix, <x^a, x^b> = integral x^(a+b), so after the sums are
    checked for non-finite values every entry is set to the sum of the first
    pair, in row-major order, of its exponent-sum class (:func:`_sum_classes`).
    Equal moments are then one double, and G stays exactly symmetric (that
    pair has i <= j).
    """
    monomials = tuple(monomials_up_to_degree(chart.ambient_dim, degree_cap))
    with np.errstate(over="ignore", invalid="ignore"):  # G is checked below
        G = _weighted_gram(chart, rule, weight, lambda X: monomial_values(monomials, X),
                           len(monomials))
    if not np.all(np.isfinite(G)):
        i, j = np.argwhere(~np.isfinite(G))[0]
        raise QuadratureError(
            f"non-finite Gram entry for monomial pair "
            f"({monomials[i]}, {monomials[j]})"
        )
    classes, reps = _sum_classes(monomials)
    G = G.ravel()[reps][classes].reshape(G.shape)
    return GramBasis(
        chart=chart, degree_cap=degree_cap, monomials=monomials,
        gram=G, weight=weight,
    )


@functools.lru_cache(maxsize=4)
def _divisor_table(monomials: tuple) -> np.ndarray:
    """Row i: for each coordinate p, the index of x^a / x_p, or N where a_p = 0.

    Read-only, built once per monomial tuple.
    """
    index = {m: i for i, m in enumerate(monomials)}
    N = len(monomials)
    table = np.array([[index[m[:p] + (e - 1,) + m[p + 1:]] if e else N
                       for p, e in enumerate(m)] for m in monomials],
                     dtype=np.intp).reshape(N, -1)
    table.flags.writeable = False
    return table


def _threshold_steps(H: np.ndarray, diag, rank_tol: float) -> tuple[list[int], np.ndarray]:
    """Sequential threshold elimination in the metric H: kept positions, rows Y.

    Rows of Y hold the coefficients of the vectors kept so far and rows of
    YH = Y H their images.  Candidate j starts as e_j and takes the step
    y -= (YH y) Y twice: under cancellation one pass leaves parts of y along
    the kept directions, and a second removes them to rounding level ("twice
    is enough").  It is dropped when its squared residual y.H.y is at most
    ``rank_tol`` times ``diag[j]``, its monomial's Gram diagonal; otherwise
    it is normalized, and H y, already formed for the residual, is scaled
    into its row of YH.  Y is exactly 0 in the columns of dropped candidates.
    """
    b = H.shape[0]
    Y, YH = np.zeros((b, b)), np.empty((b, b))
    kept: list[int] = []
    for j in range(b):
        n = len(kept)
        y = np.zeros(b)
        y[j] = 1.0
        y -= YH[:n, j] @ Y[:n]  # the first step: YH e_j is column j of YH
        y -= (YH[:n] @ y) @ Y[:n]
        Hy = H @ y
        res2 = float(y @ Hy)
        if diag[j] <= 0 or res2 <= rank_tol * diag[j]:
            continue
        norm = math.sqrt(res2)
        Y[n], YH[n] = y / norm, Hy / norm
        kept.append(j)
    return kept, Y[:len(kept)]


def orthonormalize(gb: GramBasis, rank_tol: float = 1e-9) -> GramBasis:
    """Extract the orthonormal basis by graded-lex threshold elimination, one degree at a time.

    Rows of C hold the coefficients of the k vectors kept so far and rows of
    GC = C G their Gram images.  The candidates of degree d are the degree-d
    monomials whose every divisor x^a / x_p was kept; any other is dropped
    without work, since if x^a / x_p lies in the span of earlier monomials on
    M, so does x^a.  The kept set is therefore an order ideal.

    The candidates J form one block V = I[:, J], orthogonalized against every
    kept row by block Gram-Schmidt run twice (BCGS2: V -= C^T (GC V), two
    passes of matrix products; in the first, GC V is GC[:, J]).  Inside the
    block, :func:`_threshold_steps` decides on H = V^T G V, candidate by
    candidate in graded-lex order, and keeps candidate i when G_ii > 0 and
    its squared residual exceeds ``rank_tol`` times G_ii.  The kept
    combinations Y of the block's columns append C = Y V^T and
    GC = Y (G V)^T.  Coefficients outside ``kept_indices`` stay exactly 0.
    ``rank_tol`` outside (0, 1), NaN included, raises ``ValueError``: a
    residual is never larger than its diagonal, so at 1 nothing is kept.
    """
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    G = gb.gram
    N = len(gb.monomials)
    C, GC = np.empty((N, N)), np.empty((N, N))
    divisors = _divisor_table(tuple(gb.monomials))
    degrees = np.array([sum(m) for m in gb.monomials])
    is_kept = np.zeros(N + 1, dtype=bool)
    is_kept[N] = True  # stands in for the divisor along a coordinate the monomial lacks
    k = 0
    for d in range(gb.degree_cap + 1):
        block = np.flatnonzero(degrees == d)
        J = block[is_kept[divisors[block]].all(axis=1)]
        V = -(C[:k].T @ GC[:k][:, J])
        V[J, np.arange(J.size)] += 1.0
        V -= C[:k].T @ (GC[:k] @ V)
        GV = G @ V
        local, Y = _threshold_steps(V.T @ GV, G[J, J], rank_tol)
        C[k:k + len(local)], GC[k:k + len(local)] = Y @ V.T, Y @ GV.T
        is_kept[J[local]] = True
        k += len(local)
    kept = tuple(np.flatnonzero(is_kept[:N]).tolist())
    return replace(gb, rank=k, kept_indices=kept, ortho_coeffs=C[:k].copy())


@dataclass(frozen=True, eq=False)
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
    f - p_D, where p_D = sum_k c_k b_k; unlike sqrt(<f, f> - sum c_k^2) it
    cannot go negative through cancellation.  A complex target raises
    ``ValueError``; a non-finite target sample, squared norm of f or squared
    residual raises :class:`QuadratureError`.

    The chart and f are sampled once, block by block, and the monomial
    values E of each block are formed in two forward passes over the
    blocks.  The first sums the moment vector m = E (W f) and the squared
    norm of f, and sets c = C m, C being ``gb.ortho_coeffs``.  p_D is one
    polynomial, with monomial coefficients A_D = c[:end_D] C[:end_D]; the
    second forms f - A E for all D at once and adds each block's squares,
    weighted by W, into the squared residuals.
    """
    C = gb.basis_coeffs()
    blocks = []  # (X, W, f) of each node block, read by both passes
    for block in node_blocks(gb.chart, rule):
        fvals = block.sample(f)
        if np.iscomplexobj(fvals):
            raise ValueError(f"project needs a real target, not samples of dtype "
                             f"{fvals.dtype}")
        blocks.append((block.X, block.weights(gb.weight), fvals))
    kept_degrees = [sum(gb.monomials[i]) for i in gb.kept_indices]
    ends = np.searchsorted(kept_degrees, np.arange(gb.degree_cap + 1), side="right")
    with np.errstate(over="ignore", invalid="ignore"):  # both norms are checked below
        moments, f_norm2 = np.zeros(len(gb.monomials)), 0.0
        for X, W, fvals in blocks:
            Wf = W * fvals
            moments += monomial_values(gb.monomials, X) @ Wf
            f_norm2 += float(np.sum(Wf * fvals))
        coeffs = C @ moments
        A = np.array([coeffs[:end] @ C[:end] for end in ends])
        res2 = np.zeros(gb.degree_cap + 1)
        for X, W, fvals in blocks:
            diff = fvals - A @ monomial_values(gb.monomials, X)
            res2 += (diff * diff) @ W
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
    C = gb.basis_coeffs()
    return _weighted_gram(gb.chart, rule, gb.weight,
                          lambda X: C @ monomial_values(gb.monomials, X), gb.rank)


# ------------------------------------------------------------------ equivalence


def weighted_equivalence_check(chart: VarietyChart, pairs, rule: QuadRule,
                               rule_rhs: QuadRule | None = None) -> list[tuple]:
    """Both sides of the weighted approximation identity, one ``(lhs, rhs)`` per pair.

    For each ``(f, p)`` in ``pairs``, both evaluated on the embedded nodes
    X (N, n), the left side is integral |f e^{-r^2/4} - p e^{-r^2/4}|^2
    e^{-r^2/2} dmu on ``rule`` and the right side integral |f - p|^2 e^{-r^2}
    dmu on ``rule_rhs`` (default ``rule``).  Each side samples the chart once
    per node for all pairs, and forms each node block's weights once.
    """
    def side(rule, damped):
        def partial(block):
            weights = block.weights(scale=0.5 if damped else 1.0)
            damp = np.exp(-0.25 * block.r2) if damped else 1.0  # x * 1.0 is exact
            return np.array([
                np.sum(weights * block.sample(
                    lambda X: np.square(f(X) * damp - np.real(p.eval(X)) * damp)))
                for f, p in pairs])

        return _block_sum(chart, rule, partial).tolist()

    return list(zip(side(rule, True), side(rule_rhs or rule, False)))


# ------------------------------------------------------------------ classics


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Comparison of the computed basis against a classical family."""

    kind: str
    degree_cap: int
    computed: np.ndarray
    max_rel_coeff_err: float
    matched: bool


def classic_recovery(kind: str, degree_cap: int = 6) -> RecoveryReport:
    """Recover the Hermite or Legendre family from the generic machinery.

    ``hermite``: euclidean chart on R with the Gaussian weight; ``legendre``:
    the interval [-1, 1] (a graph chart with no components) with the weight
    switched off.  :func:`study_rules` chooses the rule: the exact Gauss-Hermite
    rule for ``hermite``, a truncated rule for ``legendre``, which for a
    bounded interval does not depend on R.
    Rows are sign-fixed so the leading coefficient is positive before comparing.
    """
    if kind == "hermite":
        chart, weight = chart_euclidean(1), "gauss"
        to_power, sq_norm = np.polynomial.hermite.herm2poly, lambda k: (
            2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
    elif kind == "legendre":
        chart, weight = chart_graph([], domain=(-1.0, 1.0)), "none"
        to_power, sq_norm = np.polynomial.legendre.leg2poly, lambda k: 2.0 / (2.0 * k + 1.0)
    else:
        raise ValueError(f"kind must be 'hermite' or 'legendre', got {kind!r}")
    rule, _ = study_rules(chart, degree_cap, weight)
    gb = orthonormalize(gram_matrix(chart, degree_cap, rule, weight=weight))
    reference = np.zeros((degree_cap + 1, degree_cap + 1))
    for k in range(degree_cap + 1):  # the degree-k member divided by its norm
        reference[k, :k + 1] = to_power(np.eye(k + 1)[k]) / math.sqrt(sq_norm(k))
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
    C = gb.basis_coeffs()
    cells = [f"@,{' '.join(map(str, m))},%.17g\n" for m in gb.monomials]
    with open(path, "w", newline="") as fh:
        fh.write("basis_index,monomial_exponents,coefficient\n")
        for k, row in enumerate(C):
            nz = np.flatnonzero(row)
            template = "".join([cells[j] for j in nz]).replace("@", str(k))
            fh.write(template % tuple(row[nz].tolist()))


def gram_to_csv(gb: GramBasis, path) -> None:
    """One row per Gram entry, ``i,j,value`` in row-major order.

    Values are ``%.17g`` text, which reads back to the same double.  Each
    distinct bit pattern is formatted once (+0.0 and -0.0 stay apart), found
    by exponent-sum class (:func:`_sum_classes`): the bit patterns sorted are
    those of each class's first pair, plus those of any cell whose bits differ
    from its class's first pair.  A moment matrix has no such cell, so only
    its classes, far fewer than its N^2 cells, are sorted; any other matrix
    takes the same path and gets the same bytes.  The row template is built
    once per call, with ``@`` for the row index, so each matrix row is filled
    by one ``%`` call and written at once.
    """
    N = len(gb.monomials)
    classes, reps = _sum_classes(tuple(gb.monomials))
    bits = gb.gram.view(np.int64).ravel()
    first = bits[reps]
    odd = np.flatnonzero(bits != first[classes])
    patterns, inverse = np.unique(np.concatenate([first, bits[odd]]), return_inverse=True)
    cells = inverse[classes]
    cells[odd] = inverse[reps.size:]
    text = np.array(["%.17g" % v for v in patterns.view(np.float64).tolist()], dtype=object)
    template = "".join([f"@,{j},%s\n" for j in range(N)])
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n")
        for i, row in enumerate(text[cells].reshape(N, N).tolist()):
            fh.write(template.replace("@", str(i)) % tuple(row))


def projections_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("D,residual_norm,f_norm,rel_residual\n")
        for rep in reports:
            fh.write(
                f"{rep.degree_cap},{rep.residual_norm:.17g},"
                f"{rep.f_norm:.17g},{rep.rel_residual:.17g}\n"
            )
