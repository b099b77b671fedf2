"""Correctness checks on the CSV files one study writes.

A study passes when it exits 0, writes every expected CSV, every value
parses and is finite, and the checks below hold.  The tolerances are
stated here once:

Oracles (independent of the code under test)
- euclid3 moments: ``I_m = 4 pi Gamma((m+3)/2) / 2``, relative 1e-7.
- cylinder moments: 1-D ``scipy.integrate.quad`` reference computed by
  ``oracles.py``, relative 1e-7.  (At default nodes the tensor rule
  reaches about 1e-8 on ``r^1``, whose kink at the origin it does not
  resolve, and 1e-14 on even orders.)
- Gram matrices: closed forms on euclid3, the cylinder and the circle,
  angular closed form times a 1-D quad on the paraboloid.  Entry error
  is measured against ``sqrt(G_ii G_jj)``: 1e-7 for closed forms, 1e-5
  for the paraboloid (its tensor rule integrates a non-polynomial
  density).
- rank (rows of ``basis.csv``): ``C(3+D, 3)`` on euclid3, ``(D+1)^2`` on
  the cylinder and the paraboloid, ``2D+1`` on the circle.

Invariants
- projection ``rel_residual`` does not increase with D (slack 1e-9
  relative) and equals ``residual_norm / f_norm``;
- ``cm_closed`` equals ``cm_brute`` to 1e-9 relative;
- growth volumes do not decrease in r; ``l`` is the intrinsic dimension
  and ``C = max(volume / r^l)``;
- ``coord1_sq_vs_itself`` has ``lhs = rhs = 0`` exactly;
- the basis is orthonormal under ``gram.csv``: ``max |C G C^T - I|``
  at most 1e-3, and basis element k uses no monomial after its own;
- every moment tail bound is in ``[0, 1e-12]`` (the CLI's ``--eps``).

Every other value is compared with ``reference.json``, recorded by
``record_reference.py`` at the commit that introduced the benchmark,
with the tolerances of ``TOLERANCE``: relative 1e-9, except tail bounds
(relative 1e-6) and projection residual norms (absolute
``1e-6 * f_norm``); ``R``, node counts, radii and pair names must match
exactly, and ``k`` and ``m`` must form the requested grid.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from workloads import CHART_DIMS

REL = 1e-9
TAIL_REL = 1e-6
RESIDUAL_ABS = 1e-6
MOMENT_ORACLE_REL = 1e-7
GRAM_TOL = {"euclid3": 1e-7, "cylinder": 1e-7, "circle": 1e-7, "modgraph": 1e-5}
ORTHO_TOL = 1e-3
EPS = 1e-12

class CheckError(Exception):
    pass


def _close(x: float, ref: float, rel: float) -> bool:
    if math.isnan(ref):
        return math.isnan(x)
    return abs(x - ref) <= rel * max(abs(ref), 1e-300)


def _expect_close(what: str, xs, refs, rel: float) -> None:
    xs, refs = list(xs), list(refs)
    if len(xs) != len(refs):
        raise CheckError(f"{what}: {len(xs)} values, reference has {len(refs)}")
    for i, (x, r) in enumerate(zip(xs, refs)):
        if not _close(x, r, rel):
            raise CheckError(f"{what}[{i}] = {x!r}, expected {r!r} (rel {rel:g})")


def _read_csv(path: Path, header: str, allow_nan: tuple = ()) -> list[list]:
    """Rows of a CSV whose header must equal ``header``; numbers parsed."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise CheckError(f"{path.name} missing") from None
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} != {header!r}")
    cols = header.split(",")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(cols):
            raise CheckError(f"{path.name}:{n}: {len(cells)} cells, want {len(cols)}")
        row = []
        for col, cell in zip(cols, cells):
            if col in ("pair", "nodes", "monomial_exponents"):
                row.append(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise CheckError(f"{path.name}:{n}: {col}={cell!r} unparseable") from None
            if not math.isfinite(v) and col not in allow_nan:
                raise CheckError(f"{path.name}:{n}: {col}={cell} not finite")
            row.append(v)
        rows.append(row)
    if not rows:
        raise CheckError(f"{path.name} has no rows")
    return rows


# ------------------------------------------------------------------ per command

# command -> (file, header): the CSV every study of that command writes
LAYOUT = {
    "moments": ("moments.csv", "m,I_m,tail_bound,R,nodes"),
    "growth": ("growth.csv", "r,volume,C,l,slope"),
    "equivalence": ("equivalence.csv", "pair,lhs,rhs,rel_gap"),
    "project": ("projection.csv", "D,residual_norm,f_norm,rel_residual"),
    "lemma": ("cm.csv", "k,m,cm_closed,cm_brute,cstar"),
}
ALLOW_NAN = ("cstar",)
# columns that hold one value on every row; the reference keeps it once
CONSTANT = ("R", "nodes", "slope")

# command -> {column: tolerance} for the columns compared with reference.json.
# A tolerance is relative (0 means equal); ``(tol, column)`` is ``tol``
# times the larger of the reference and that column's value.
TOLERANCE = {
    "moments": {"I_m": REL, "tail_bound": TAIL_REL, "R": 0.0, "nodes": 0.0},
    "growth": {"r": 0.0, "volume": REL, "slope": REL},
    "equivalence": {"pair": 0.0, "lhs": REL, "rhs": REL},
    "project": {"residual_norm": (RESIDUAL_ABS, "f_norm"), "f_norm": REL},
    "lemma": {"cm_closed": REL, "cstar": REL},
}


def columns(study, out: Path) -> dict:
    """Every column of the study's CSV by name, numbers parsed."""
    name, header = LAYOUT[study.command]
    rows = _read_csv(out / name, header, ALLOW_NAN)
    return {col: [r[i] for r in rows] for i, col in enumerate(header.split(","))}


def reference_values(study, out: Path, cols: dict | None = None) -> dict:
    """The values of a study's CSV that are checked against a reference."""
    cols = columns(study, out) if cols is None else cols
    values = {}
    for col in TOLERANCE[study.command]:
        values[col] = cols[col]
        if col in CONSTANT:
            if len(set(cols[col])) != 1:
                raise CheckError(f"{col} differs between rows: {sorted(set(cols[col]))}")
            values[col] = cols[col][0]
    return values


def compare_reference(study, cols: dict, ref: dict) -> None:
    """Raise CheckError unless every referenced column is within TOLERANCE."""
    got = reference_values(study, None, cols)
    for col, tol in TOLERANCE[study.command].items():
        xs, refs = got[col], ref[col]
        if col in CONSTANT:
            xs, refs = [xs], [refs]
        if tol == 0.0:
            if xs != refs:
                raise CheckError(f"{col} {xs!r} != reference {refs!r}")
        elif isinstance(tol, tuple):
            tol, floor_col = tol
            floors = got[floor_col]
            if len(xs) != len(refs):
                raise CheckError(f"{col}: {len(xs)} values, reference has {len(refs)}")
            for i, (x, r, f) in enumerate(zip(xs, refs, floors)):
                if abs(x - r) > tol * max(abs(r), abs(f)):
                    raise CheckError(f"{col}[{i}] = {x!r}, reference {r!r} "
                                     f"(tol {tol:g} x {floor_col})")
        else:
            _expect_close(col, xs, refs, tol)


def _flag(study, name: str) -> str:
    return study.flags[study.flags.index(name) + 1]


def _moments(study, cols, oracle):
    ms = [int(m) for m in cols["m"]]
    mmax = int(_flag(study, "--mmax"))
    if ms != list(range(mmax + 1)):
        raise CheckError(f"moments.csv orders {ms}, want 0..{mmax}")
    if study.chart == "euclid3":
        exact = [2.0 * math.pi * math.gamma((m + 3) / 2.0) for m in ms]
        _expect_close("I_m vs closed form", cols["I_m"], exact, MOMENT_ORACLE_REL)
    elif study.chart == "cylinder":
        _expect_close("I_m vs quad", cols["I_m"], oracle["moments"], MOMENT_ORACLE_REL)
    tails = cols["tail_bound"]
    if any(not 0.0 <= t <= EPS for t in tails):
        raise CheckError(f"tail bound outside [0, {EPS:g}]: {max(tails)!r}")


def _growth(study, cols, oracle):
    r = np.array(cols["r"])
    vol = np.array(cols["volume"])
    if np.any(np.diff(vol) < 0):
        raise CheckError("growth volume decreases in r")
    l = CHART_DIMS[study.chart][0]
    if set(cols["l"]) != {l}:
        raise CheckError(f"l = {cols['l'][0]!r}, want intrinsic dimension {l}")
    C = float(np.max(vol / r ** l))
    _expect_close("C vs max(volume / r^l)", set(cols["C"]), [C], REL)


def _equivalence(study, cols, oracle):
    for pair, lhs, rhs, gap in zip(cols["pair"], cols["lhs"], cols["rhs"], cols["rel_gap"]):
        if pair == "coord1_sq_vs_itself" and not lhs == rhs == 0.0:
            raise CheckError(f"{pair}: lhs={lhs!r} rhs={rhs!r}, want 0")
        want = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if not _close(gap, want, REL):
            raise CheckError(f"{pair}: rel_gap {gap!r} != {want!r}")


def _project(study, cols, oracle):
    Ds = [int(d) for d in cols["D"]]
    dmax = int(_flag(study, "--degree"))
    if Ds != list(range(2, dmax + 1, 2)):
        raise CheckError(f"projection degrees {Ds}, want 2..{dmax} step 2")
    rels = cols["rel_residual"]
    for D, res, fn, rel in zip(Ds, cols["residual_norm"], cols["f_norm"], rels):
        if not _close(rel, res / fn, REL):
            raise CheckError(f"D={D}: rel_residual {rel!r} != residual/f_norm")
    for a, b, D in zip(rels, rels[1:], Ds[1:]):
        if b > a * (1.0 + REL):
            raise CheckError(f"rel_residual increases at D={D}: {a!r} -> {b!r}")


def _lemma(study, cols, oracle):
    ks = [float(s) for s in _flag(study, "--k").split(",")]
    mmax = int(_flag(study, "--mmax"))
    grid = [(k, m) for k in ks for m in range(1, mmax + 1)]
    if list(zip(cols["k"], (int(m) for m in cols["m"]))) != grid:
        raise CheckError("cm.csv (k, m) rows do not match the requested grid")
    for k, m, closed, brute, cs in zip(*(cols[c] for c in ("k", "m", "cm_closed",
                                                            "cm_brute", "cstar"))):
        if abs(closed - brute) > REL * closed:
            raise CheckError(f"k={k:g} m={m:g}: cm_closed {closed!r} != cm_brute {brute!r}")
        if m >= 2 and not math.isfinite(cs):
            raise CheckError(f"k={k:g} m={m:g}: cstar not finite")


# ------------------------------------------------------------------ basis


def graded_lex(n: int, degree_cap: int) -> list[tuple]:
    """Exponent tuples of degree <= D: by degree, then first exponent first."""
    out = []

    def rec(total, slots, prefix):
        if slots == 1:
            out.append(tuple(prefix + [total]))
            return
        for e in range(total, -1, -1):
            rec(total - e, slots - 1, prefix + [e])

    for d in range(degree_cap + 1):
        rec(d, n, [])
    return out


def _angular(p: int, q: int) -> float:
    """Integral of cos^p sin^q over one period."""
    if p % 2 or q % 2:
        return 0.0
    return 2.0 * math.exp(math.lgamma((p + 1) / 2) + math.lgamma((q + 1) / 2)
                          - math.lgamma((p + q + 2) / 2))


def _half_gauss(s: int) -> float:
    """Integral of u^s e^{-u^2} over the real line."""
    return 0.0 if s % 2 else math.gamma((s + 1) / 2)


def moment_value(chart: str, expo: tuple, scale: float, radial: dict) -> float:
    """Oracle for the Gaussian-weighted integral of one monomial.

    ``scale`` is the cylinder radius or the paraboloid coefficient;
    ``radial`` maps ``e`` to the paraboloid's radial integral.
    """
    if chart == "euclid3":
        return math.prod(_half_gauss(e) for e in expo)
    if chart == "circle":
        return math.exp(-1.0) * _angular(*expo)
    p, q, s = expo
    if chart == "cylinder":
        return scale ** (p + q + 1) * _angular(p, q) * _half_gauss(s) * math.exp(-scale * scale)
    if chart == "modgraph":
        ang = _angular(p, q)
        return 0.0 if ang == 0.0 else ang * scale ** s * radial[str(p + q + 2 * s)]
    raise KeyError(chart)


@functools.lru_cache(maxsize=4)
def oracle_gram(chart: str, degree_cap: int, scale: float, radial: tuple) -> np.ndarray:
    """Gram matrix of the graded-lex monomials of degree <= D, from oracles."""
    monos = graded_lex(CHART_DIMS[chart][1], degree_cap)
    radial = dict(radial)
    cache: dict = {}
    G = np.empty((len(monos), len(monos)))
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            e = tuple(x + y for x, y in zip(a, b))
            if e not in cache:
                cache[e] = moment_value(chart, e, scale, radial)
            G[i, j] = cache[e]
    return G


def _basis(study, out, oracle, scales):
    D = int(_flag(study, "--degree"))
    n = CHART_DIMS[study.chart][1]
    monos = graded_lex(n, D)
    N = len(monos)
    gram_path = out / "gram.csv"
    if not gram_path.exists():
        raise CheckError("gram.csv missing")
    try:
        g = np.loadtxt(gram_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckError(f"gram.csv unparseable: {exc}") from None
    if g.shape != (N * N, 3) or not np.all(np.isfinite(g)):
        raise CheckError(f"gram.csv has shape {g.shape}, want ({N * N}, 3) finite")
    if np.any(g[:, 0] != np.repeat(np.arange(N), N)) or np.any(g[:, 1] != np.tile(np.arange(N), N)):
        raise CheckError("gram.csv (i, j) index columns out of order")
    G = g[:, 2].reshape(N, N)
    scale = {"cylinder": scales["cylinder_radius"],
             "modgraph": scales["modulus_coeff"]}.get(study.chart, 1.0)
    radial = tuple(sorted(oracle["radial"].items())) if oracle else ()
    ref_G = oracle_gram(study.chart, D, scale, radial)
    d = np.sqrt(np.diag(ref_G))
    err = float(np.max(np.abs(G - ref_G) / np.outer(d, d)))
    if err > GRAM_TOL[study.chart]:
        raise CheckError(f"gram.csv off its oracle by {err:.3g} (tol {GRAM_TOL[study.chart]:g})")

    rows = _read_csv(out / "basis.csv", "basis_index,monomial_exponents,coefficient")
    index = {m: i for i, m in enumerate(monos)}
    rank = int(max(r[0] for r in rows)) + 1
    if {int(r[0]) for r in rows} != set(range(rank)):
        raise CheckError("basis.csv skips a basis index")
    C = np.zeros((rank, N))
    for k, exps, coeff in rows:
        try:
            C[int(k), index[tuple(int(e) for e in exps.split())]] = coeff
        except (KeyError, ValueError):
            raise CheckError(f"basis.csv: unknown monomial {exps!r}") from None
    want = {"euclid3": math.comb(3 + D, 3), "cylinder": (D + 1) ** 2,
            "modgraph": (D + 1) ** 2, "circle": 2 * D + 1}[study.chart]
    if rank != want:
        raise CheckError(f"rank {rank}, want {want}")
    last = [int(np.nonzero(row)[0][-1]) for row in C]
    if any(b <= a for a, b in zip(last, last[1:])):
        raise CheckError("basis element uses a monomial after its own")
    defect = float(np.max(np.abs(C @ G @ C.T - np.eye(rank))))
    if defect > ORTHO_TOL:
        raise CheckError(f"basis not orthonormal under gram.csv: defect {defect:.3g}")


_CHECKS = {
    "moments": _moments,
    "growth": _growth,
    "project": _project,
    "lemma": _lemma,
    "equivalence": _equivalence,
}


def check_study(study, scales: dict, out: Path, reference: dict | None,
                oracle: dict | None) -> str | None:
    """None if the study's outputs pass, else the first failure's text."""
    try:
        if study.command == "basis":
            _basis(study, out, oracle, scales)
        else:
            if reference is None:
                raise CheckError("no reference recorded for these inputs")
            cols = columns(study, out)
            _CHECKS[study.command](study, cols, oracle)
            compare_reference(study, cols, reference)
    except CheckError as exc:
        return str(exc)
    return None
