"""The sup-norm bound C_m for weighted truncated exponentials.

p_m is the degree-(m-1) Taylor partial sum of e^{i<k,x>}; the weighted
error e^{-|x|^2} |p_m - e^{i<k,x>}| is bounded by an explicit constant C_m
that tends to zero in m.  Three computations of C_m are compared, and the
bound is checked against the measured grid supremum.
"""

from gaussvar import (
    cm_closed_form,
    cm_table,
    cstar,
    default_error_grid,
    log_cm,
    truncated_exponential,
    uniform_error,
)

print("p_2 for k=(1,0):", truncated_exponential((1.0, 0.0), 2).to_text())

print("\nclosed form vs direct maximization (they are the same supremum):")
for rec in cm_table([0.5, 1.0, 2.0], [1, 5, 10, 20]):
    gap = abs(rec.cm_closed - rec.cm_brute) / rec.cm_closed
    print(f"  k={rec.k:3.1f} m={rec.m:2d}: C_m={rec.cm_closed:.6e}  "
          f"cross-check gap {gap:.1e}")

k = (1.0, 0.0)
grid = default_error_grid(k)
print("\nmeasured grid sup of the weighted error against the bound (k=1):")
for m in (1, 5, 10, 15, 20, 30, 40):
    sup = uniform_error(k, m, grid)
    bound = cm_closed_form(1.0, m)
    print(f"  m={m:2d}: sup {sup:.3e} <= C_m {bound:.3e}")

print("\nasymptotics: ln C_m - C*_m stays bounded while C*_m -> -infinity")
for m in (50, 100, 200, 400):
    print(f"  m={m}: C*_m = {cstar(1.0, m):10.2f},  "
          f"ln C_m - C*_m = {log_cm(1.0, m) - cstar(1.0, m):.4f}")
