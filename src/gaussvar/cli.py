"""Batch command line: load a variety spec, run a study, write CSV files.

One command is one study writing into one output directory; runs with the
same configuration produce byte-identical files.  Each command accepts only
the flags it reads, and every flag value is checked before the study runs.
Exit codes: 0 success, 1 numerical failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import approxlemma, orthobasis, quadrature
from .polyring import MultiPoly, squared_norms
from .variety import GrowthEstimate, GrowthError, SpecFileError, estimate_growth, load_chart

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

_MOMENT_RADII = np.linspace(2.0, 10.0, 9)
_GROWTH_RADII = np.geomspace(2.0, 100.0, 18)


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
    if not ks or not all(0 < k < math.inf for k in ks):
        raise ConfigError(f"{flag} needs positive finite wavevector lengths, got {text!r}")
    return ks


_FLAGS = {  # flag -> argparse settings; each command in _COMMANDS sets the default
    "spec": dict(help="variety spec file (JSON)"),
    "mmax": dict(type=int, help="largest moment/expansion order"),
    "degree": dict(type=int, help="degree cap D"),
    "eps": dict(type=float, help="tail budget for the truncation radius"),
    "nodes": dict(type=int, help="nodes per dimension; None: 48 bounded, 64 otherwise"),
    "weight": dict(choices=("gauss", "none"), help="inner-product weight"),
    "alpha": dict(type=float, help="exponent of the target e^{alpha r^2}"),
    "k": dict(help="comma-separated wavevector lengths"),
}
_SPEC = (None, _need(bool, "given"))
_EPS = (1e-12, _need(lambda v: v > 0, "positive"))  # v > 0 is False for NaN
_NODES = (None, _at_least(4))


def _rule_for(chart, m_max, args) -> tuple[GrowthEstimate, quadrature.QuadRule]:
    growth = estimate_growth(chart, _MOMENT_RADII)
    R = quadrature.choose_truncation(growth, m_max, args.eps)
    return growth, quadrature.build_rule(chart, R, args.nodes)


def _compact(chart) -> bool:
    """No unbounded parameter, so the chart has finite volume."""
    return all(d.kind != "unbounded" for d in chart.domains)


def _check_weight(chart, weight):
    """--weight none integrates plain dmu, whose mass is finite only on a compact chart."""
    if weight == "none" and not _compact(chart):
        raise ConfigError(f"--weight none needs a compact chart, got {chart.chart_id}")


def _exp_target(chart, alpha):
    """e^{alpha r^2}, checked: it is in L^2 iff alpha < 1/2 or the chart is compact."""
    if not math.isfinite(alpha) or (not _compact(chart) and alpha >= 0.5):
        raise ConfigError(f"--alpha must be finite, and < 1/2 unless the chart is compact, "
                          f"got {alpha:g} for {chart.chart_id}")
    return lambda X: np.exp(alpha * squared_norms(X))


def cmd_moments(args, out: Path) -> None:
    chart = load_chart(args.spec)
    growth, rule = _rule_for(chart, args.mmax, args)
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


def cmd_basis(args, out: Path) -> None:
    chart = load_chart(args.spec)
    _check_weight(chart, args.weight)
    _, rule = _rule_for(chart, 2 * args.degree, args)
    gram = orthobasis.gram_matrix(chart, args.degree, rule, weight=args.weight)
    gb = orthobasis.orthonormalize(gram)
    orthobasis.gram_to_csv(gb, out / "gram.csv")
    orthobasis.basis_to_csv(gb, out / "basis.csv")


def cmd_project(args, out: Path) -> None:
    chart = load_chart(args.spec)
    _check_weight(chart, args.weight)
    target = _exp_target(chart, args.alpha)
    _, rule = _rule_for(chart, 2 * args.degree, args)
    gram = orthobasis.gram_matrix(chart, args.degree, rule, weight=args.weight)
    gb = orthobasis.orthonormalize(gram)
    reports = orthobasis.project(gb, target, rule)
    orthobasis.projections_to_csv(reports[2::2], out / "projection.csv")


def cmd_lemma(args, out: Path) -> None:
    records = approxlemma.cm_table(args.k, range(1, args.mmax + 1))
    approxlemma.records_to_csv(records, out / "cm.csv")


def cmd_equivalence(args, out: Path) -> None:
    chart = load_chart(args.spec)
    target = _exp_target(chart, args.alpha)
    _, rule = _rule_for(chart, 4, args)
    rhs_nodes = [n + 16 for n in rule.nodes_per_dim]
    rule_rhs = quadrature.build_rule(chart, rule.truncation_radius, rhs_nodes)

    n = chart.ambient_dim
    x1 = MultiPoly.variable(n, 0)
    pairs = [
        ("coord1_sq_vs_zero", x1 * x1, MultiPoly.zero(n)),
        ("exp_target_vs_one", target, MultiPoly.constant(n, 1.0)),
        ("coord1_sq_vs_itself", x1 * x1, x1 * x1),
    ]
    rows = []
    for label, f, p in pairs:
        lhs, rhs = orthobasis.weighted_equivalence_check(chart, p, f, rule, rule_rhs)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussvar",
        description="Gaussian-measure studies on parametrized varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, (default, _) in flags.items():
            p.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
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
    except (quadrature.QuadratureError, GrowthError, OverflowError,
            FloatingPointError, ValueError) as exc:
        print(f"gaussvar {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
