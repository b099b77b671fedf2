"""The chart families: embeddings, volume densities, radial fields, growth.

Each chart exposes embed(u), volume_density(u) = sqrt(det(J^T J)) and
radial_sq(u) = |x(u)|^2.  The quadrature samples the first two once per
rule; functions on the variety, such as an ambient polynomial restricted to
it, are functions of the embedded point x = embed(u).
"""

import math

import numpy as np

from gaussvar import (
    chart_euclidean,
    chart_graph,
    chart_modulus_graph,
    chart_revolution,
    estimate_growth,
    parse_poly,
    variables,
)

# graph of f(x) = x^2 in R^2: arc-length density sqrt(1 + 4x^2)
parabola = chart_graph([parse_poly("1*x1^2", 1)])
print("graph of x^2:")
for x in (0.0, 1.0, 2.0):
    print(f"  x={x}: density {parabola.volume_density(x):.6f} "
          f"(sqrt(1+4x^2)={math.sqrt(1 + 4 * x * x):.6f}), "
          f"r^2 {parabola.radial_sq(x):.6f}")

# revolution surface with profile f = 2 + u1^2 around the z-axis
flared = chart_revolution(parse_poly("2+1*x1^2", 1), parse_poly("1*x1^1", 1))
print("\nflared revolution surface (f=2+u1^2, h=u1):")
print(f"  density at u1=0: {flared.volume_density((0.0, 1.0)):.6f}  (= f(0) * |h'|)")
print(f"  r^2 at u1=1: {flared.radial_sq((1.0, 0.0)):.6f}  (= f^2 + h^2 = 9 + 1)")

# |F(z)| graph for F = z^2: density sqrt(1 + 4|z|^2)
blow = chart_modulus_graph(parse_poly("1*x1^2", 1))
print("\nmodulus graph of z^2:")
print(f"  density at z=1: {blow.volume_density((1.0, 0.0)):.6f} (sqrt 5)")
print(f"  r^2 at z=1+i: {blow.radial_sq((1.0, 1.0)):.6f} (|z|^2 + |z^2|^2 = 6)")

# restriction: an ambient polynomial evaluated on embedded points
x, y, z = variables(3)
cylinder = chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1))
pts = np.array([[0.3, 1.0], [-2.0, 4.5]])
print(f"\nx^2 + y^2 restricted to the cylinder: {(x*x + y*y)(cylinder.embed(pts))}"
      "  (the relation == 1)")

# polynomial volume growth: vol(M cap B_r) against C * r^l
print("\nvolume growth:")
for name, chart, radii in (
    ("line", chart_euclidean(1), np.linspace(2.0, 10.0, 9)),
    ("cylinder", cylinder, np.linspace(2.0, 10.0, 9)),
    ("graph of x^2", parabola, np.geomspace(10.0, 100.0, 8)),
):
    g = estimate_growth(chart, radii)
    print(f"  {name}: slope {g.slope:.3f}, bound vol <= {g.C:.3f} * r^{g.l}")
