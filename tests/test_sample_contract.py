"""One contract for every public integral entry point.

A non-finite integrand sample or volume density raises QuadratureError
naming the node, and no numpy warning escapes before it (tier-1 turns an
escaping RuntimeWarning into an error).
"""

import dataclasses

import numpy as np
import pytest

from gaussvar.orthobasis import (
    gram_matrix, orthonormalize, project, weighted_equivalence_check,
)
from gaussvar.polyring import MultiPoly
from gaussvar.quadrature import (
    QuadratureError, build_rule, integrability_scan, integrate, moment_table,
    shell_moment_sum,
)
from gaussvar.variety import VarietyChart, chart_euclidean

LINE = chart_euclidean(1)
RULE = build_rule(LINE, 8)
BAD_NODE = 5
SAMPLE = r"non-finite integrand sample at node \d+, parameters \[-?\d"
DENSITY = rf"non-finite volume density at node {BAD_NODE}, parameters \[-?\d"


def _density(U):
    out = np.ones(U.shape[0])
    out[BAD_NODE] = np.inf
    return out


# the line with density 1, except inf at node BAD_NODE of every rule
SPIKED = VarietyChart("euclidean", 1, LINE.domains, lambda U: U.copy(), _density,
                      "spiked-line")


def project_spiked():
    gb = orthonormalize(gram_matrix(LINE, 2, RULE))
    return project(dataclasses.replace(gb, chart=SPIKED), lambda X: X[:, 0], RULE)


CASES = {
    "shell_moment_sum-m400": (
        lambda: shell_moment_sum(LINE, 400, build_rule(LINE, 40)), SAMPLE),
    "integrability_scan-alpha400": (lambda: integrability_scan(LINE, 400.0), SAMPLE),
    "integrate-overflowing-integrand": (
        lambda: integrate(LINE, lambda X: np.exp(X[:, 0] ** 4), build_rule(LINE, 40)),
        SAMPLE),
    "integrate-density": (lambda: integrate(SPIKED, 1.0, RULE), DENSITY),
    "moment_table-density": (lambda: moment_table(SPIKED, [0, 2], RULE), DENSITY),
    "shell_moment_sum-density": (lambda: shell_moment_sum(SPIKED, 2, RULE), DENSITY),
    "gram_matrix-density": (lambda: gram_matrix(SPIKED, 2, RULE), DENSITY),
    "project-density": (project_spiked, DENSITY),
    "equivalence-density": (
        lambda: weighted_equivalence_check(
            SPIKED, [(lambda X: X[:, 0], MultiPoly.zero(1))], RULE),
        DENSITY),
}


@pytest.mark.parametrize("call,match", CASES.values(), ids=CASES.keys())
def test_non_finite_sample_raises_naming_node(call, match):
    with pytest.raises(QuadratureError, match=match):
        call()
