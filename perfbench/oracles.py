"""Reference integrals that need scipy, computed once per run.

They are handed to the pass runner as plain numbers, so the process that
runs the studies never imports scipy and its peak memory is the
program's own.
"""

from __future__ import annotations

import math

from scipy.integrate import quad


def _quad(f) -> float:
    return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def cylinder_moments(a: float, m_max: int) -> list[float]:
    """I_m = 2 pi a * integral over R of (a^2 + u^2)^{m/2} e^{-(a^2 + u^2)} du."""
    return [
        4.0 * math.pi * a * _quad(
            lambda u, m=m: (a * a + u * u) ** (m / 2.0) * math.exp(-(a * a + u * u)))
        for m in range(m_max + 1)
    ]


def paraboloid_radial(c: float, e_max: int) -> dict:
    """Integrals of rho^{e+1} e^{-(rho^2 + c^2 rho^4)} sqrt(1 + 4 c^2 rho^2), even e.

    On the modulus graph of ``c z^2`` a monomial ``x^p y^q w^s`` integrates
    to the angular factor of ``cos^p sin^q`` times ``c^s`` times this
    radial integral at ``e = p + q + 2s``.
    """
    return {
        str(e): _quad(lambda r, e=e: r ** (e + 1) * math.exp(-(r * r + c * c * r ** 4))
                      * math.sqrt(1.0 + 4.0 * c * c * r * r))
        for e in range(0, e_max + 1, 2)
    }


def study_oracles(plan) -> dict:
    """Oracle data for the studies of a plan that need it, by study id."""
    out = {}
    for st in plan.studies:
        if st.sid == "moments:cylinder":
            mmax = int(st.flags[st.flags.index("--mmax") + 1])
            out[st.sid] = {"moments": cylinder_moments(plan.scales["cylinder_radius"], mmax)}
        elif st.sid == "basis:modgraph":
            D = int(st.flags[st.flags.index("--degree") + 1])
            out[st.sid] = {"radial": paraboloid_radial(plan.scales["modulus_coeff"], 4 * D)}
    return out
