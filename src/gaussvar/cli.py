"""Batch command line: load a variety spec, run a study, write CSV files.

One command is one study writing into one output directory; runs with the
same configuration produce byte-identical files.  Exit codes: 0 success,
1 numerical failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import approxlemma, orthobasis, quadrature
from .polyring import MultiPoly
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussvar",
        description="Gaussian-measure studies on parametrized varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "moments": "Gaussian moments I_m with tail budgets -> moments.csv",
        "growth": "volume growth measurement and fit -> growth.csv",
        "basis": "Gram matrix and orthonormal basis -> gram.csv, basis.csv",
        "project": "projection residual sweep over degrees -> projection.csv",
        "lemma": "closed-form vs brute-force sup bound -> cm.csv",
        "equivalence": "both sides of the weighted identity -> equivalence.csv",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", help="variety spec file (JSON)")
        p.add_argument("--degree", type=int, default=None,
                       help="degree cap D (default: 6 for basis, 8 for project)")
        p.add_argument("--mmax", type=int, default=None,
                       help="largest moment/expansion order "
                            "(default: 6 for moments, 60 for lemma)")
        p.add_argument("--eps", type=float, default=1e-12,
                       help="tail budget for the truncation radius (default 1e-12)")
        p.add_argument("--nodes", type=int, default=None,
                       help="quadrature nodes per dimension "
                            "(default 64 unbounded/periodic, 48 bounded)")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--weight", choices=("gauss", "none"), default="gauss",
                       help="inner-product weight (default gauss)")
        p.add_argument("--alpha", type=float, default=0.25,
                       help="exponent of the target e^{alpha r^2} (default 0.25)")
        p.add_argument("--k", default="1.0",
                       help="comma-separated wavevector lengths for lemma "
                            "(default 1.0)")
    return parser


def _chart(args):
    if not args.spec:
        raise ConfigError(f"--spec is required for the {args.command} command")
    return load_chart(args.spec)


def _growth(chart) -> GrowthEstimate:
    return estimate_growth(chart, _MOMENT_RADII)


def _rule_for(chart, growth, m_max, args):
    if not args.eps > 0:
        raise ConfigError(f"--eps must be positive, got {args.eps:g}")
    if args.nodes is not None and args.nodes < 4:
        raise ConfigError(f"--nodes must be >= 4, got {args.nodes}")
    R = quadrature.choose_truncation(growth, m_max, args.eps)
    return quadrature.build_rule(chart, R, args.nodes)


def _exp_target(chart, alpha):
    return lambda U: np.exp(alpha * chart.radial_sq(U))


def cmd_moments(args, out: Path) -> None:
    chart = _chart(args)
    m_max = args.mmax if args.mmax is not None else 6
    if m_max < 0:
        raise ConfigError(f"--mmax must be >= 0, got {m_max}")
    growth = _growth(chart)
    rule = _rule_for(chart, growth, m_max, args)
    table = quadrature.moment_table(chart, range(m_max + 1), rule, growth)
    table.to_csv(out / "moments.csv")


def cmd_growth(args, out: Path) -> None:
    chart = _chart(args)
    growth = estimate_growth(chart, _GROWTH_RADII)
    rows = [
        (_fmt(r), _fmt(v), _fmt(growth.C), str(growth.l), _fmt(growth.slope))
        for r, v in zip(growth.radii, growth.volumes)
    ]
    _write_csv(out / "growth.csv", "r,volume,C,l,slope", rows)


def cmd_basis(args, out: Path) -> None:
    chart = _chart(args)
    D = args.degree if args.degree is not None else 6
    if D < 0:
        raise ConfigError(f"--degree must be >= 0, got {D}")
    growth = _growth(chart)
    rule = _rule_for(chart, growth, 2 * D, args)
    gb = orthobasis.orthonormalize(
        orthobasis.gram_matrix(chart, D, rule, weight=args.weight)
    )
    orthobasis.gram_to_csv(gb, out / "gram.csv")
    orthobasis.basis_to_csv(gb, out / "basis.csv")


def cmd_project(args, out: Path) -> None:
    chart = _chart(args)
    D_max = args.degree if args.degree is not None else 8
    if D_max < 2:
        raise ConfigError(f"--degree must be >= 2 for a sweep, got {D_max}")
    growth = _growth(chart)
    rule = _rule_for(chart, growth, 2 * D_max, args)
    gb = orthobasis.orthonormalize(
        orthobasis.gram_matrix(chart, D_max, rule, weight=args.weight)
    )
    reports = orthobasis.project(gb, _exp_target(chart, args.alpha), rule,
                                 target=f"exp({args.alpha:g}*r^2)")
    orthobasis.projections_to_csv(reports[2::2], out / "projection.csv")


def cmd_lemma(args, out: Path) -> None:
    m_max = args.mmax if args.mmax is not None else 60
    if m_max < 1:
        raise ConfigError(f"--mmax must be >= 1, got {m_max}")
    try:
        ks = [float(s) for s in args.k.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --k {args.k!r}: {exc}") from exc
    if not ks or any(k <= 0 for k in ks):
        raise ConfigError(f"--k needs positive wavevector lengths, got {args.k!r}")
    records = approxlemma.cm_table(ks, range(1, m_max + 1))
    approxlemma.records_to_csv(records, out / "cm.csv")


def cmd_equivalence(args, out: Path) -> None:
    chart = _chart(args)
    growth = _growth(chart)
    rule = _rule_for(chart, growth, 4, args)
    rhs_nodes = [n + 16 for n in rule.nodes_per_dim]
    rule_rhs = quadrature.build_rule(chart, rule.truncation_radius, rhs_nodes)

    n = chart.ambient_dim
    x1 = MultiPoly.variable(n, 0)

    def coord_sq(U):
        return np.real(x1.eval(chart.embed(U))) ** 2

    pairs = [
        ("coord1_sq_vs_zero", coord_sq, MultiPoly.zero(n)),
        ("exp_target_vs_one", _exp_target(chart, args.alpha),
         MultiPoly.constant(n, 1.0)),
        ("coord1_sq_vs_itself", coord_sq, x1 * x1),
    ]
    rows = []
    for label, f, p in pairs:
        lhs, rhs = orthobasis.weighted_equivalence_check(chart, p, f, rule, rule_rhs)
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rows.append((label, _fmt(lhs), _fmt(rhs), _fmt(gap)))
    _write_csv(out / "equivalence.csv", "pair,lhs,rhs,rel_gap", rows)


_COMMANDS = {
    "moments": cmd_moments,
    "growth": cmd_growth,
    "basis": cmd_basis,
    "project": cmd_project,
    "lemma": cmd_lemma,
    "equivalence": cmd_equivalence,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, out)
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
