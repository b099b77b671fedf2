"""Batch command line: load a variety spec, run a study, write CSV files.

One command is one study writing into one output directory; runs with the
same configuration produce byte-identical files.  Each command accepts only
the flags it reads, and every flag value is checked before the study runs.
Exit codes: 0 success, 1 numerical failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import approxlemma, orthobasis, quadrature
from .polyring import MultiPoly, squared_norms
from .variety import GrowthError, SpecFileError, estimate_growth, load_chart

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

_GROWTH_RADII = np.geomspace(2.0, 100.0, 18)
_MAX_MONOMIALS = 4096  # a study's largest basis; room for D = 24 on a surface (2925)


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _need(ok, must):
    """Check of one flag value: keep it when ``ok`` holds, else name the flag."""
    def check(flag, value):
        if not ok(value):
            raise ConfigError(f"{flag} must be {must}, got {value}")
        return value
    return check


def _at_least(low):
    return _need(lambda v: v is None or v >= low, f">= {low}")  # None: the rule's default


def _wavevectors(flag, text):
    try:
        ks = [float(s) for s in text.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {flag} {text!r}: {exc}") from exc
    if not ks:
        raise ConfigError(f"{flag} needs at least one wavevector length, got {text!r}")
    try:  # the lemma's own domain for k
        return [approxlemma.check_k(k) for k in ks]
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None


_FLAGS = {  # flag -> argparse settings; each command in _COMMANDS sets the default
    "spec": dict(help="variety spec file (JSON)"),
    "mmax": dict(type=int, help="largest moment/expansion order"),
    "degree": dict(type=int, help="degree cap D"),
    "eps": dict(type=float, help="tail budget of the truncated rule"),
    "nodes": dict(type=int, help="nodes per dimension of the truncated rule (None: "
                                 "quadrature.DEFAULT_NODES by domain kind)"),
    "weight": dict(choices=("gauss", "none"), help="inner-product weight"),
    "alpha": dict(type=float, help="exponent of the target e^{alpha r^2}"),
    "k": dict(help="comma-separated wavevector lengths"),
}
_OWN_HELP = {  # command -> {flag: help} where the shared help is not true of it
    "equivalence": {"eps": "tail budget of the truncated rules of both sides",
                    "nodes": "nodes per dimension of the left side's truncated rule (None: "
                             "quadrature.DEFAULT_NODES by domain kind); the right side's "
                             "rule has 16 more per dimension"},
    "basis": {"eps": "tail budget of the truncated rule, used under --weight none or "
                     "where the chart has no exact Gram rule (quadrature.study_rules)",
              "nodes": "nodes per dimension of that truncated rule (None: "
                       "quadrature.DEFAULT_NODES by domain kind)"},
    "project": {"eps": "budget of the 1-D projection's panel certificate "
                       "(orthobasis.project_radial), else tail budget of the truncated rule",
                "nodes": "nodes per dimension of the truncated rule of charts without a "
                         "1-D projection, as for basis (None: quadrature.DEFAULT_NODES)"},
}
_SPEC = (None, _need(bool, "given"))
_EPS = (quadrature.DEFAULT_EPS, _need(lambda v: v > 0, "positive"))  # v > 0 is False for NaN
_NODES = (None, _at_least(4))


def _compact(chart) -> bool:
    """No unbounded parameter, so the chart has finite volume."""
    return all(d.kind != "unbounded" for d in chart.domains)


def _exp_target(chart, alpha):
    """e^{alpha r^2}, checked: it is in L^2 iff alpha < 1/2 or the chart is compact."""
    if not math.isfinite(alpha) or (not _compact(chart) and alpha >= 0.5):
        raise ConfigError(f"--alpha must be finite, and < 1/2 unless the chart is compact, "
                          f"got {alpha:g} for {chart.chart_id}")
    return lambda X: np.exp(alpha * squared_norms(X))


def cmd_moments(args, out: Path) -> None:
    chart = load_chart(args.spec)
    growth, rule = quadrature.truncated_rule(chart, args.mmax, args.eps, args.nodes)
    table = quadrature.moment_table(chart, range(args.mmax + 1), rule, growth)
    table.to_csv(out / "moments.csv")


def cmd_growth(args, out: Path) -> None:
    chart = load_chart(args.spec)
    growth = estimate_growth(chart, _GROWTH_RADII)
    rows = [
        (_fmt(r), _fmt(v), _fmt(growth.C), str(growth.l), _fmt(growth.slope))
        for r, v in zip(growth.radii, growth.volumes)
    ]
    _write_csv(out / "growth.csv", "r,volume,C,l,slope", rows)


def _weighted_chart(args):
    """The spec's chart, with --weight checked (none needs finite volume), and --degree:
    more than ``_MAX_MONOMIALS`` monomials in its ambient coordinates are refused."""
    chart = load_chart(args.spec)
    if args.weight == "none" and not _compact(chart):
        raise ConfigError(f"--weight none needs a compact chart, got {chart.chart_id}")
    count = math.comb(chart.ambient_dim + args.degree, args.degree)
    if count > _MAX_MONOMIALS:
        raise ConfigError(f"--degree {args.degree} gives {count} monomials in "
                          f"{chart.ambient_dim} variables, more than the limit "
                          f"{_MAX_MONOMIALS}")
    return chart


def _study(args, chart, target=None):
    """The basis to --degree on the Gram rule of :func:`quadrature.study_rules`, and
    the rule for ``target``."""
    gram_rule, rule = quadrature.study_rules(chart, args.degree, args.weight, target,
                                             args.eps, args.nodes)
    gram = orthobasis.gram_matrix(chart, args.degree, gram_rule, weight=args.weight)
    return orthobasis.orthonormalize(gram), rule


def cmd_basis(args, out: Path) -> None:
    gb, _ = _study(args, _weighted_chart(args))
    orthobasis.gram_to_csv(gb, out / "gram.csv")
    orthobasis.basis_to_csv(gb, out / "basis.csv")


def cmd_project(args, out: Path) -> None:
    chart = _weighted_chart(args)
    target = _exp_target(chart, args.alpha)
    # the modulus graph of c z^k is rotation invariant too, but its reference.json
    # values were recorded on the truncated rule: it moves with ROADMAP item 22
    if args.weight == "gauss" and chart.kind in ("euclidean", "revolution"):
        reports = orthobasis.project_radial(chart, args.alpha, args.degree, args.eps)
    else:
        gb, rule = _study(args, chart, target)
        reports = orthobasis.project(gb, target, rule)
    orthobasis.projections_to_csv(reports[2::2], out / "projection.csv")


def cmd_lemma(args, out: Path) -> None:
    records = approxlemma.cm_table(args.k, range(1, args.mmax + 1))
    approxlemma.records_to_csv(records, out / "cm.csv")


def cmd_equivalence(args, out: Path) -> None:
    chart = load_chart(args.spec)
    target = _exp_target(chart, args.alpha)
    _, rule = quadrature.truncated_rule(chart, 4, args.eps, args.nodes)
    rhs_nodes = [n + 16 for n in rule.nodes_per_dim]
    rule_rhs = quadrature.build_rule(chart, rule.truncation_radius, rhs_nodes)

    n = chart.ambient_dim
    x1 = MultiPoly.variable(n, 0)
    pairs = [
        ("coord1_sq_vs_zero", x1 * x1, MultiPoly.zero(n)),
        ("exp_target_vs_one", target, MultiPoly.constant(n, 1.0)),
        ("coord1_sq_vs_itself", x1 * x1, x1 * x1),
    ]
    sides = orthobasis.weighted_equivalence_check(
        chart, [(f, p) for _, f, p in pairs], rule, rule_rhs)
    rows = []
    for (label, _, _), (lhs, rhs) in zip(pairs, sides):
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rows.append((label, _fmt(lhs), _fmt(rhs), _fmt(gap)))
    _write_csv(out / "equivalence.csv", "pair,lhs,rhs,rel_gap", rows)


# command -> (handler, help line, {flag it reads: (default, check)}), plus --out
_COMMANDS = {
    "moments": (cmd_moments, "Gaussian moments I_m with tail budgets -> moments.csv",
                {"spec": _SPEC, "mmax": (6, _at_least(0)), "eps": _EPS, "nodes": _NODES}),
    "growth": (cmd_growth, "volume growth measurement and fit -> growth.csv",
               {"spec": _SPEC}),
    "basis": (cmd_basis, "Gram matrix and orthonormal basis -> gram.csv, basis.csv",
              {"spec": _SPEC, "degree": (6, _at_least(0)), "eps": _EPS,
               "nodes": _NODES, "weight": ("gauss", None)}),
    "project": (cmd_project, "projection residual sweep over degrees -> projection.csv",
                {"spec": _SPEC, "degree": (8, _at_least(2)), "eps": _EPS,
                 "nodes": _NODES, "weight": ("gauss", None), "alpha": (0.25, None)}),
    "lemma": (cmd_lemma, "closed-form vs brute-force sup bound -> cm.csv",
              {"mmax": (60, _at_least(1)), "k": ("1.0", _wavevectors)}),
    "equivalence": (cmd_equivalence,
                    "both sides of the weighted identity -> equivalence.csv",
                    {"spec": _SPEC, "eps": _EPS, "nodes": _NODES, "alpha": (0.25, None)}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at the first :func:`main` call, not at
    import; parsing reads it and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="gaussvar",
        description="Gaussian-measure studies on parametrized varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        own_help = _OWN_HELP.get(name, {})
        for flag, (default, _) in flags.items():
            settings = dict(_FLAGS[flag], help=own_help.get(flag, _FLAGS[flag]["help"]))
            p.add_argument(f"--{flag}", default=default, **settings)
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    try:
        for flag, (_, check) in flags.items():
            if check:
                setattr(args, flag, check(f"--{flag}", getattr(args, flag)))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler(args, out)
    except (ConfigError, SpecFileError, OSError) as exc:
        print(f"gaussvar {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (quadrature.QuadratureError, GrowthError, OverflowError, ValueError) as exc:
        print(f"gaussvar {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
