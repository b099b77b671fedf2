"""Orthonormal bases of restricted monomials, and what rank detection sees.

On R with weight e^{-x^2} the machinery reproduces the Hermite family; on
[-1, 1] with the weight off it reproduces Legendre.  On the unit circle the
relation x^2 + y^2 = 1 makes one degree-2 monomial dependent, and the
threshold elimination drops exactly that one.
"""

import numpy as np

from gaussvar import (
    basis_inner_products,
    build_rule,
    chart_circle,
    classic_recovery,
    gram_matrix,
    orthonormalize,
)

for kind in ("hermite", "legendre"):
    report = classic_recovery(kind)
    print(f"{kind}: matched={report.matched}, "
          f"max per-coefficient relative error {report.max_rel_coeff_err:.2e}")
    row = report.computed[2]
    print(f"  degree-2 element coefficients (constant, x, x^2): "
          f"{row[0]:.8f}, {row[1]:.1e}, {row[2]:.8f}"
          f"   ratio c0/c2 = {row[0] / row[2]:.8f}")

circle = chart_circle()
rule = build_rule(circle, 2)
gb = orthonormalize(gram_matrix(circle, 2, rule))
print(f"\nunit circle, monomials of degree <= 2: {len(gb.monomials)} monomials, "
      f"numerical rank {gb.rank}")
dropped = [gb.monomials[i] for i in range(len(gb.monomials))
           if i not in gb.kept_indices]
print(f"dropped monomial exponents: {dropped} "
      "(y^2 = 1 - x^2 on the circle)")

# verify orthonormality with a finer, independent rule
fine = build_rule(circle, 2, 128)
M = basis_inner_products(gb, fine)
print(f"re-integrated <b_i, b_j> deviation from identity: "
      f"{np.max(np.abs(M - np.eye(gb.rank))):.2e}")
