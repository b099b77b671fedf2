"""The package's public surface is its modules' ``__all__`` lists, once."""

import importlib

import gaussvar

MODULES = ["approxlemma", "orthobasis", "polyring", "quadrature", "variety"]


def test_all_is_the_modules_all_in_order():
    lists = [importlib.import_module(f"gaussvar.{m}").__all__ for m in MODULES]
    assert gaussvar.__all__ == [name for names in lists for name in names]
    assert len(set(gaussvar.__all__)) == len(gaussvar.__all__)


def test_every_name_is_its_modules_object():
    for m in MODULES:
        module = importlib.import_module(f"gaussvar.{m}")
        for name in module.__all__:
            assert getattr(gaussvar, name) is getattr(module, name), (m, name)


def test_constants_writers_and_helpers_import():
    from gaussvar import (  # noqa: F401
        DEFAULT_EPS,
        DEFAULT_NODES,
        DimRule,
        Discretization,
        ParamDomain,
        alpha_gap,
        as_points,
        basis_to_csv,
        gram_to_csv,
        projections_to_csv,
        records_to_csv,
    )
