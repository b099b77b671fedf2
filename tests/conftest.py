import os
from pathlib import Path

import numpy as np
import pytest

from gaussvar import (
    build_rule,
    chart_circle,
    chart_euclidean,
    chart_graph,
    chart_modulus_graph,
    chart_revolution,
    choose_truncation,
    estimate_growth,
    parse_poly,
)

MOMENT_RADII = np.linspace(2.0, 10.0, 9)
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports gaussvar from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="session")
def euclid1():
    return chart_euclidean(1)


@pytest.fixture(scope="session")
def euclid1_growth(euclid1):
    return estimate_growth(euclid1, MOMENT_RADII)


@pytest.fixture(scope="session")
def euclid1_rule(euclid1, euclid1_growth):
    return build_rule(euclid1, choose_truncation(euclid1_growth, 12))


@pytest.fixture(scope="session")
def cylinder():
    return chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1))


@pytest.fixture(scope="session")
def cylinder_growth(cylinder):
    return estimate_growth(cylinder, MOMENT_RADII)


@pytest.fixture(scope="session")
def cylinder_rule(cylinder, cylinder_growth):
    return build_rule(cylinder, choose_truncation(cylinder_growth, 16))


@pytest.fixture(scope="session")
def graph_x2():
    return chart_graph([parse_poly("1*x1^2", 1)])


@pytest.fixture(scope="session")
def graph_x2_rule(graph_x2):
    growth = estimate_growth(graph_x2, MOMENT_RADII)
    return build_rule(graph_x2, choose_truncation(growth, 16))


@pytest.fixture(scope="session")
def modgraph_z2():
    return chart_modulus_graph(parse_poly("1*x1^2", 1))


@pytest.fixture(scope="session")
def modgraph_z2_rule(modgraph_z2):
    growth = estimate_growth(modgraph_z2, MOMENT_RADII)
    return build_rule(modgraph_z2, choose_truncation(growth, 10))


@pytest.fixture(scope="session")
def circle():
    return chart_circle()


@pytest.fixture(scope="session")
def circle_rule(circle):
    return build_rule(circle, 2)
