"""Gaussian moments on a chart, with a certified truncation radius.

Walks the full pipeline on the real line and on the cylinder:
measure volume growth, turn it into a tail budget for the majorant series
C * sum (r+1)^{m+l} e^{-r^2}, pick the smallest radius whose tail is below
the target, and integrate r^m e^{-r^2} dmu on the truncated box.
``truncated_rule`` takes the first three steps in one call; this demo
walks them one at a time on the line and calls it on the cylinder.
"""

import math

import numpy as np

from gaussvar import (
    build_rule,
    chart_euclidean,
    chart_revolution,
    choose_truncation,
    estimate_growth,
    gaussian_moment,
    moment_table,
    parse_poly,
    tail_budget,
    truncated_rule,
)

line = chart_euclidean(1)
growth = estimate_growth(line, np.linspace(2.0, 10.0, 9))
print(f"volume growth on R: vol(B_r) <= {growth.C:.4f} * r^{growth.l}, "
      f"log-log slope {growth.slope:.4f}")

for R in (3, 5, 7):
    bound = tail_budget(growth.C, growth.l, m=6, R=R)
    print(f"  tail budget beyond R={R}: {bound:.3e}")

R = choose_truncation(growth, m_max=6, eps=1e-12)
rule = build_rule(line, R)
print(f"chosen truncation radius R={R}, rule {rule}")

print("\nmoments I_m = int |x|^m e^{-x^2} dx against the Gamma closed form:")
for m in range(7):
    value = gaussian_moment(line, m, rule)
    exact = math.gamma((m + 1) / 2.0)
    print(f"  m={m}: {value:.12f}   Gamma((m+1)/2)={exact:.12f}   "
          f"rel err {abs(value - exact) / exact:.2e}")

# The cylinder (f=1, h=u1): its Gaussian mass splits into a 1-D Gaussian
# integral times the circle length times e^{-1}.
cylinder = chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1))
cg, crule = truncated_rule(cylinder, 8)
table = moment_table(cylinder, range(5), crule, cg)
mass = table.rows[0][1]
split = math.sqrt(math.pi) * 2.0 * math.pi * math.exp(-1.0)
print(f"\ncylinder mass {mass:.10f} vs tensor-split value {split:.10f}")
print("cylinder moment table (m, I_m, tail bound):")
for m, value, bound in table.rows:
    print(f"  {m}  {value:.10f}  {bound:.2e}")
