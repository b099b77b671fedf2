import os
from pathlib import Path

import pytest

from gaussvar import (
    chart_circle,
    chart_euclidean,
    chart_graph,
    chart_modulus_graph,
    chart_revolution,
    parse_poly,
    truncated_rule,
)

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
def euclid1_study(euclid1):
    return truncated_rule(euclid1, 12)


@pytest.fixture(scope="session")
def euclid1_growth(euclid1_study):
    return euclid1_study[0]


@pytest.fixture(scope="session")
def euclid1_rule(euclid1_study):
    return euclid1_study[1]


@pytest.fixture(scope="session")
def cylinder():
    return chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1))


@pytest.fixture(scope="session")
def cylinder_study(cylinder):
    return truncated_rule(cylinder, 16)


@pytest.fixture(scope="session")
def cylinder_growth(cylinder_study):
    return cylinder_study[0]


@pytest.fixture(scope="session")
def cylinder_rule(cylinder_study):
    return cylinder_study[1]


@pytest.fixture(scope="session")
def graph_x2():
    return chart_graph([parse_poly("1*x1^2", 1)])


@pytest.fixture(scope="session")
def graph_x2_rule(graph_x2):
    return truncated_rule(graph_x2, 16)[1]


@pytest.fixture(scope="session")
def modgraph_z2():
    return chart_modulus_graph(parse_poly("1*x1^2", 1))


@pytest.fixture(scope="session")
def modgraph_z2_rule(modgraph_z2):
    return truncated_rule(modgraph_z2, 10)[1]


@pytest.fixture(scope="session")
def circle():
    return chart_circle()


@pytest.fixture(scope="session")
def circle_rule(circle):
    return truncated_rule(circle, 16)[1]
