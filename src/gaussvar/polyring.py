"""Sparse multivariate polynomial arithmetic over real and complex scalars.

A polynomial is a map from monomials to coefficients, kept in canonical
sparse form: exactly-zero coefficients are never stored.  A monomial
x1^e1 * ... * xn^en is its exponent tuple (e1, ..., en) of non-negative
ints.  Monomials are ordered graded-lexicographically, i.e. by total
degree first and, within a degree, by descending exponent tuple, so that
for two variables the order reads

    1 < x1 < x2 < x1^2 < x1*x2 < x2^2 < ...

The order is stated once, as the sort key ``_graded_lex`` of the
enumeration and of a polynomial's terms.  Every evaluation goes through one
kernel, :func:`monomial_values`: the constant is 1, a degree-1 monomial is
its coordinate, and any other is its parent row times one coordinate.  All
types here are immutable after construction and safe to share between threads.
Coefficients are double precision (real or complex); no epsilon pruning is
done inside the ring, only exact zeros are dropped.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiPoly",
    "monomials_up_to_degree",
    "monomial_values",
    "as_points",
    "truncated_exponential",
    "parse_poly",
    "format_poly",
    "variables",
]


def _graded_lex(exponents: tuple) -> tuple:
    """Sort key of the graded-lex order: degree first, then descending exponents."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_up_to_degree(n: int, degree_cap: int) -> list[tuple]:
    """All exponent tuples in ``n`` variables of total degree <= ``degree_cap``.

    A degree-d tuple counts, per variable, one multiset of d variables; the
    tuples are sorted by ``_graded_lex``.  The count is C(n + D, D).  Each
    (n, D) is sorted once per process; every call returns a fresh list.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    return list(_sorted_monomials(operator.index(n), operator.index(degree_cap)))


@functools.lru_cache(maxsize=16)
def _sorted_monomials(n: int, degree_cap: int) -> tuple:
    """:func:`monomials_up_to_degree` as a tuple, keyed by int arguments only, so
    a float never reaches the cache under its equal int."""
    return tuple(sorted((tuple(map(vs.count, range(n))) for d in range(degree_cap + 1)
                         for vs in itertools.combinations_with_replacement(range(n), d)),
                        key=_graded_lex))


@dataclass(frozen=True, repr=False)
class MultiPoly:
    """Sparse polynomial in ``ambient_dim`` variables.

    ``terms`` maps exponent tuples of ints to nonzero float or complex
    coefficients.  Instances are immutable and compare by
    ``(ambient_dim, terms)``; arithmetic returns new objects in canonical form.
    """

    ambient_dim: int
    terms: dict | None = None

    def __post_init__(self) -> None:
        try:  # operator.index admits Python and numpy ints only
            ambient_dim = operator.index(self.ambient_dim)
        except TypeError:
            raise ValueError(f"ambient dimension must be an integer, "
                             f"got {self.ambient_dim!r}") from None
        if ambient_dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {ambient_dim}")
        canon = {}
        for mono, coeff in (self.terms or {}).items():
            try:
                mono = tuple(map(operator.index, mono))
            except TypeError:
                raise ValueError(f"exponents must be integers, got {mono!r}") from None
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial: {mono}")
            if len(mono) != ambient_dim:
                raise ValueError(
                    f"monomial {mono} does not match ambient dimension {ambient_dim}"
                )
            if coeff == 0:
                continue
            canon[mono] = coeff
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "ambient_dim", ambient_dim)

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "MultiPoly":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, index: int) -> "MultiPoly":
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        exps = [0] * n
        exps[index] = 1
        return cls(n, {tuple(exps): 1.0})

    # ---------------------------------------------------------------- queries

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(complex(c).imag == 0 for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple, complex]]:
        return sorted(self.terms.items(), key=lambda kv: _graded_lex(kv[0]))

    def __repr__(self) -> str:
        return f"MultiPoly({self.ambient_dim}, {self.to_text()!r})"

    # ---------------------------------------------------------------- arithmetic

    def _check_dim(self, other: "MultiPoly") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ambient_dim, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return MultiPoly(self.ambient_dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ambient_dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.ambient_dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(
                self.ambient_dim, {m: c * other for m, c in self.terms.items()}
            )
        self._check_dim(other)
        terms: dict[tuple, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(a + b for a, b in zip(ma, mb))
                terms[mono] = terms.get(mono, 0) + ca * cb
        return MultiPoly(self.ambient_dim, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        try:  # operator.index admits Python and numpy ints only, as for the exponents
            e = operator.index(exponent)
        except TypeError:
            raise ValueError(f"polynomial powers must be integers, got {exponent!r}") from None
        if e < 0:
            raise ValueError(f"polynomial powers must be non-negative, got {e}")
        result = MultiPoly.constant(self.ambient_dim, 1.0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def partial(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.ambient_dim:
            raise ValueError(f"variable index {index} out of range")
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = mono[:index] + (e - 1,) + mono[index + 1:]
            terms[new] = terms.get(new, 0) + coeff * e
        return MultiPoly(self.ambient_dim, terms)

    # ---------------------------------------------------------------- evaluation

    def eval(self, x):
        """Evaluate at a point (length-n sequence) or a batch of shape (N, n).

        Terms are accumulated in graded lexicographic order so results are
        reproducible bit-for-bit for a fixed input.
        """
        arr, single = as_points(x, self.ambient_dim, "point")
        use_complex = np.iscomplexobj(arr) or not self.is_real()
        arr = arr.astype(np.complex128 if use_complex else np.float64, copy=False)
        terms = self.sorted_terms()
        E = monomial_values([mono for mono, _ in terms], arr)
        out = np.zeros(arr.shape[0], dtype=arr.dtype)
        for (_, coeff), row in zip(terms, E):
            out = out + coeff * row
        if single:
            return out[0]
        return out

    __call__ = eval

    def to_text(self) -> str:
        return format_poly(self)


def as_points(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    """``x`` as a batch of shape (N, dim), and whether it was a single point.

    A scalar or a sequence of length ``dim`` is one point.  When ``dim`` is
    1, a 1-D array of any other length is a batch of N scalars.  The dtype
    of ``x`` is kept.  ``what`` names the points in the dimension error.
    """
    arr = np.asarray(x)
    single = arr.ndim <= 1
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            arr = arr.reshape(-1, 1)
            single = False
        else:
            arr = arr.reshape(1, -1)
    if arr.shape[1] != dim:
        raise ValueError(f"{what} has dimension {arr.shape[1]}, expected {dim}")
    return arr, single


def squared_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of X (N, n), n >= 1: the squared columns added in
    order, equal bit for bit to np.sum(X * X, axis=1) and faster."""
    out = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        out += X[:, j] * X[:, j]
    return out


def _parent(exponents: tuple) -> tuple[tuple, int]:
    """(exponents lowered by one in the last variable present, that variable)."""
    j = max(i for i, e in enumerate(exponents) if e)
    return exponents[:j] + (exponents[j] - 1,) + exponents[j + 1:], j


@functools.lru_cache(maxsize=256)
def _kernel_plan(monomials: tuple) -> tuple:
    """How :func:`monomial_values` forms the rows of ``monomials``: built once per tuple.

    Returns ``(size, ones, copies, products)``: the row count, scratch
    parents included; the rows of the constant; ``(row, coordinate)`` for
    each degree-1 row; and, in degree order, ``(row, parent row,
    coordinate)`` for each other row.
    """
    exps = list(monomials)
    index = {e: i for i, e in enumerate(exps)}
    for e in exps:  # also visits the parents appended below
        if sum(e) > 1 and _parent(e)[0] not in index:
            index[_parent(e)[0]] = len(exps)
            exps.append(_parent(e)[0])
    ones, copies, products = [], [], []
    for i in sorted(range(len(exps)), key=lambda i: sum(exps[i])):
        e = exps[i]
        if not any(e):
            ones.append(i)
        elif sum(e) == 1:
            copies.append((i, e.index(1)))
        else:
            parent, j = _parent(e)
            products.append((i, index[parent], j))
    return len(exps), tuple(ones), tuple(copies), tuple(products)


def monomial_values(monomials, points: np.ndarray) -> np.ndarray:
    """Values of the exponent tuples ``monomials`` at ``points`` (shape (N, n)),
    one row per monomial.

    Every row is written into one preallocated matrix.  The constant is 1
    and a degree-1 row is a copy of its coordinate; every other row is its
    parent row x^(e - u_j) times the coordinate x_j, where j is the last
    variable with e_j > 0, so x1^a is the running product ((x1 * x1) * x1)
    ... .  Parents missing from ``monomials`` get scratch rows past the
    returned ones.  Which rows multiply which is planned once per tuple of
    monomials (:func:`_kernel_plan`, cached), so a call on a block of points
    only runs the multiplications.  The monomials may come in any order; the
    result has the dtype of ``points``.
    """
    monomials = tuple(monomials)
    size, ones, copies, products = _kernel_plan(monomials)
    E = np.empty((size, points.shape[0]), dtype=points.dtype)
    cols = [points[:, j] for j in range(points.shape[1])]
    for i in ones:
        E[i] = 1
    for i, j in copies:
        E[i] = cols[j]
    for i, src, j in products:
        np.multiply(E[src], cols[j], out=E[i])
    return E[:len(monomials)]


def variables(n: int) -> tuple[MultiPoly, ...]:
    """Convenience: the coordinate polynomials (x1, ..., xn)."""
    return tuple(MultiPoly.variable(n, i) for i in range(n))


def truncated_exponential(k, m: int) -> MultiPoly:
    """Degree-(m-1) Taylor partial sum of exp(i <k, x>) as a complex polynomial.

    The monomial x^b of total degree a carries the coefficient
    i^a * prod_j k_j^{b_j} / b_j!, which is the multinomial expansion of
    i^a <k, x>^a / a! summed over a = 0 .. m-1.
    """
    k = tuple(float(c) for c in k)
    if m < 1:
        raise ValueError(f"order m must be >= 1, got {m}")
    n = len(k)
    terms: dict[tuple, complex] = {}
    for mono in monomials_up_to_degree(n, m - 1):
        alpha = sum(mono)
        mult = 1.0
        for i, e in enumerate(mono):
            if e:
                mult = mult * k[i] ** e
                try:
                    mult = mult / math.factorial(e)
                except OverflowError:
                    # factorial beyond float range: the coefficient underflows
                    mult = 0.0
        terms[mono] = (1j ** alpha) * mult
    return MultiPoly(n, terms)


# -------------------------------------------------------------------- text format


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _format_coeff(coeff) -> tuple[str, bool]:
    """Return (text for |coeff| or the complex literal, sign_is_negative)."""
    c = complex(coeff)
    if c.imag == 0:
        re = c.real
        neg = math.copysign(1.0, re) < 0 and re != 0
        return _fmt17(abs(re) if neg else re), neg
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt17(c.real)}{sign}{_fmt17(abs(c.imag))}j)", False


def format_poly(p: MultiPoly) -> str:
    """Render a polynomial as ``coeff*x1^e1*...`` terms joined by +/-.

    Coefficients are printed with 17 significant digits so that
    ``parse_poly(format_poly(p))`` reproduces every coefficient bit-exactly.
    """
    if p.is_zero():
        return "0"
    parts = []
    for idx, (mono, coeff) in enumerate(p.sorted_terms()):
        cstr, neg = _format_coeff(coeff)
        factors = [cstr] + [
            f"x{i + 1}^{e}" for i, e in enumerate(mono) if e > 0
        ]
        term = "*".join(factors)
        if idx == 0:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append((" - " if neg else " + ") + term)
    return "".join(parts)


def _split_terms(text: str) -> list[tuple[int, str]]:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    out = []
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    depth = 0
    for j in range(i, len(s)):
        ch = s[j]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and j > start:
            prev = s[j - 1]
            if prev in "eE*^(":
                continue  # scientific-notation exponent or operator context
            out.append((sign, s[start:j]))
            sign = -1 if ch == "-" else 1
            start = j + 1
    if start >= len(s):
        raise ValueError(f"dangling sign in polynomial text: {text!r}")
    out.append((sign, s[start:]))
    return out


def _parse_factor(factor: str):
    """Return ('var', index, exponent) or ('coeff', value)."""
    if factor.startswith("x"):
        body = factor[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
        else:
            idx_s, exp_s = body, "1"
        if not (idx_s.isdigit() and exp_s.isdigit()):
            raise ValueError(f"malformed variable factor: {factor!r}")
        idx = int(idx_s)
        if idx < 1:
            raise ValueError(f"variable indices are 1-based: {factor!r}")
        return "var", idx - 1, int(exp_s)
    if factor.startswith("(") and factor.endswith(")"):
        return "coeff", complex(factor[1:-1])
    try:
        return "coeff", float(factor)
    except ValueError as exc:
        raise ValueError(f"cannot parse factor {factor!r}") from exc


def parse_poly(text: str, ambient_dim: int | None = None) -> MultiPoly:
    """Parse the text format produced by :func:`format_poly`.

    ``ambient_dim`` fixes the number of variables; when omitted it is
    inferred as the largest variable index present (1 for constants).
    """
    raw_terms = []
    max_idx = 0
    for sign, term in _split_terms(text):
        coeff: complex | float = 1.0
        exps: dict[int, int] = {}
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            kind, *rest = _parse_factor(factor)
            if kind == "var":
                idx, e = rest
                exps[idx] = exps.get(idx, 0) + e
                max_idx = max(max_idx, idx + 1)
            else:
                coeff = coeff * rest[0]
        if isinstance(coeff, complex) and coeff.imag == 0:
            coeff = coeff.real
        raw_terms.append((sign, exps, coeff))
    n = ambient_dim if ambient_dim is not None else max(max_idx, 1)
    terms: dict[tuple, complex] = {}
    for sign, exps, coeff in raw_terms:
        if exps and max(exps) >= n:
            raise ValueError(
                f"variable x{max(exps) + 1} exceeds ambient dimension {n}"
            )
        mono = tuple(exps.get(i, 0) for i in range(n))
        terms[mono] = terms.get(mono, 0) + (coeff if sign > 0 else -coeff)
    return MultiPoly(n, terms)
