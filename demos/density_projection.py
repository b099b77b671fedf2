"""Density at work: projection residuals of e^{r^2/4} shrink with degree.

The target f = e^{r^2/4} is square-integrable against e^{-r^2} dmu (it sits
strictly inside the alpha < 1/2 integrability boundary) but is no
polynomial, so it exercises genuine approximation.  Its best-approximation
residual in the degree-D slice of the coordinate ring decays as D grows.
"""

import numpy as np

from gaussvar import (
    build_rule,
    chart_graph,
    chart_revolution,
    choose_truncation,
    estimate_growth,
    gram_matrix,
    integrability_scan,
    orthonormalize,
    parse_poly,
    project,
)

cylinder = chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1))
parabola = chart_graph([parse_poly("1*x1^2", 1)])

# the target is in L^2 for alpha < 1/2 and not beyond
for alpha in (0.25, 0.4, 0.6):
    scan = integrability_scan(cylinder, alpha)
    state = "diverges" if scan.divergent else \
        f"converges (final change {scan.final_rel_change:.1e})"
    print(f"||e^(alpha r^2)||^2 on the cylinder, alpha={alpha}: {state}")


def f(X):
    """The target, a function of the ambient point: called on embedded nodes."""
    return np.exp(0.25 * np.sum(X * X, axis=1))


print()
for name, chart in (("cylinder", cylinder), ("graph of x^2", parabola)):
    growth = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
    rule = build_rule(chart, choose_truncation(growth, 16))

    # one basis at D=8 holds every lower degree's basis as its leading block
    gb = orthonormalize(gram_matrix(chart, 8, rule))
    print(f"{name}: relative residual of the degree-D projection of e^(r^2/4)")
    for rep in project(gb, f, rule)[2::2]:
        D = rep.degree_cap
        size = sum(m.degree <= D for m in gb.monomials)
        print(f"  D={D}: rank {len(rep.coefficients):3d} of {size:3d} monomials, "
              f"rel residual {rep.rel_residual:.6f}")
    print()
