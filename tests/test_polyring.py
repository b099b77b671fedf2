import cmath
import dataclasses
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussvar import polyring
from gaussvar.polyring import (
    MultiPoly,
    _graded_lex,
    as_points,
    format_poly,
    monomial_values,
    monomials_up_to_degree,
    parse_poly,
    squared_norms,
    truncated_exponential,
    variables,
)


def brute_monomials(n, D):
    """Independent enumeration: filter the full exponent box."""
    out = [e for e in product(range(D + 1), repeat=n) if sum(e) <= D]
    return sorted(out, key=lambda e: (sum(e), tuple(-x for x in e)))


class TestMonomialEnumeration:
    def test_univariate_degree_two(self):
        mons = monomials_up_to_degree(1, 2)
        assert mons == [(0,), (1,), (2,)]

    def test_degree_zero(self):
        mons = monomials_up_to_degree(2, 0)
        assert mons == [(0, 0)]

    @pytest.mark.parametrize("n,D", [(2, 3), (3, 4), (1, 6), (4, 2)])
    def test_count_and_order_match_brute_force(self, n, D):
        mons = monomials_up_to_degree(n, D)
        assert len(mons) == math.comb(n + D, D)
        assert mons == brute_monomials(n, D)

    @pytest.mark.parametrize("n,D", [(2, 4), (3, 3)])
    def test_strictly_increasing_graded_lex(self, n, D):
        mons = monomials_up_to_degree(n, D)
        assert all(_graded_lex(a) < _graded_lex(b) for a, b in zip(mons, mons[1:]))
        assert len(set(mons)) == len(mons)

    def test_each_call_returns_an_equal_fresh_list(self):
        first, second = monomials_up_to_degree(3, 4), monomials_up_to_degree(3, 4)
        assert first == second == brute_monomials(3, 4) and first is not second
        first.append((9, 9, 9))
        first[0] = (7, 0, 0)
        assert monomials_up_to_degree(3, 4) == brute_monomials(3, 4)

    @pytest.mark.parametrize("n,D", [(3, 12.0), (3.0, 12), (np.float64(3), 12)])
    def test_float_argument_raises_before_and_after_the_int_is_cached(self, n, D):
        polyring._sorted_monomials.cache_clear()
        with pytest.raises(TypeError):
            monomials_up_to_degree(n, D)
        assert len(monomials_up_to_degree(3, 12)) == 455
        with pytest.raises(TypeError):
            monomials_up_to_degree(n, D)

    def test_bool_and_numpy_int_arguments_count_as_ints(self):
        assert monomials_up_to_degree(True, True) == [(0,), (1,)]
        assert monomials_up_to_degree(np.int64(2), np.int32(3)) == brute_monomials(2, 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            monomials_up_to_degree(0, 3)
        with pytest.raises(ValueError):
            monomials_up_to_degree(2, -1)
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, -2): 1.0})


class TestEvaluation:
    def test_sum_of_squares(self):
        x, y = variables(2)
        p = x * x + y * y
        assert p.eval((3.0, 4.0)) == 25.0

    def test_constant(self):
        p = MultiPoly.constant(3, 1.0)
        assert p.eval((9.0, -2.0, 0.5)) == 1.0

    def test_batch_matches_pointwise(self):
        x, y = variables(2)
        p = 2.0 * x * y + x ** 3 - 0.5
        pts = np.array([[0.5, 1.0], [-2.0, 3.0], [0.0, 0.0]])
        batch = p.eval(pts)
        for i in range(3):
            assert batch[i] == p.eval(pts[i])

    def test_dimension_mismatch(self):
        p = MultiPoly.variable(2, 0)
        with pytest.raises(ValueError):
            p.eval((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("x,dim,shape,single", [
        (2.0, 1, (1, 1), True),
        ([2.0], 1, (1, 1), True),
        ([1.0, 2.0, 3.0], 1, (3, 1), False),  # in one dimension: N scalars
        ([1.0, 2.0], 2, (1, 2), True),
        ([[1.0, 2.0], [3.0, 4.0]], 2, (2, 2), False),
        ([1j, 2.0], 2, (1, 2), True),
    ])
    def test_point_or_batch(self, x, dim, shape, single):
        arr, is_single = as_points(x, dim, "point")
        assert arr.shape == shape and is_single == single
        assert arr.dtype == np.asarray(x).dtype
        p = MultiPoly.variable(dim, 0)
        assert np.shape(p.eval(x)) == (() if single else (shape[0],))

    def test_point_or_batch_names_the_points(self):
        with pytest.raises(ValueError, match="parameter has dimension 3, expected 2"):
            as_points([1.0, 2.0, 3.0], 2, "parameter")


@st.composite
def exponent_lists(draw):
    """Sparse, unordered exponent lists in n = 1..3 variables."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    return n, draw(st.lists(exps, min_size=1, max_size=12))


@st.composite
def sample_points(draw, n):
    """40 real or complex points in [-2, 2]^n (each part)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-2.0, 2.0, size=(40, n))
    if draw(st.booleans()):
        pts = pts + 1j * rng.uniform(-2.0, 2.0, size=(40, n))
    return pts


class TestMonomialKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_power_products(self, data):
        n, exps = data.draw(exponent_lists())
        pts = data.draw(sample_points(n))
        E = monomial_values(exps, pts)
        assert E.shape == (len(exps), pts.shape[0]) and E.dtype == pts.dtype
        eps = np.finfo(float).eps
        for row, e in zip(E, exps):
            ref = np.prod([pts[:, j] ** ej for j, ej in enumerate(e)], axis=0)
            # one rounding per factor in the kernel and in the reference
            tol = 4.0 * max(sum(e), 1) * eps
            assert np.all(np.abs(row - ref) <= tol * np.abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_square_of_coordinate_is_bit_exact(self, data):
        n = data.draw(st.integers(1, 3))
        X = data.draw(sample_points(n))
        x1 = MultiPoly.variable(n, 0)
        assert np.array_equal((x1 * x1).eval(X), x1.eval(X) ** 2)


def running_product(e, pts):
    """x^e as the kernel's multiply sequence: x1 taken e1 times, then x2, ...,
    each factor multiplied into the running product; the constant is 1."""
    out = None
    for j, k in enumerate(e):
        for _ in range(k):
            out = pts[:, j].copy() if out is None else out * pts[:, j]
    return np.ones(pts.shape[0], dtype=pts.dtype) if out is None else out


def assert_bit_equal_to_running_products(E, exps, pts):
    assert E.shape == (len(exps), pts.shape[0]) and E.dtype == pts.dtype
    for row, e in zip(E, exps):
        assert row.tobytes() == running_product(e, pts).tobytes(), e


class TestKernelPlan:
    """The cached plan gives the values of a freshly planned call, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_list_tuple_and_shuffled_order(self, data):
        n, exps = data.draw(exponent_lists())
        pts = data.draw(sample_points(n))
        order = data.draw(st.permutations(range(len(exps))))
        shuffled = [exps[i] for i in order]
        E = monomial_values(exps, pts)
        assert_bit_equal_to_running_products(E, exps, pts)
        assert monomial_values(tuple(exps), pts).tobytes() == E.tobytes()
        assert monomial_values(shuffled, pts).tobytes() == E[list(order)].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_repeated_monomials_and_complex_points(self, data):
        n, exps = data.draw(exponent_lists())
        exps = exps + data.draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4))
        pts = data.draw(sample_points(n))
        pts = pts + 1j * pts[::-1] if data.draw(st.booleans()) else pts
        assert_bit_equal_to_running_products(monomial_values(exps, pts), exps, pts)

    def test_same_values_after_the_plan_is_evicted(self):
        exps = [(3, 0, 2), (0, 0, 0), (1, 1, 1), (0, 5, 0), (2, 0, 0)]
        pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(50, 3))
        first = monomial_values(exps, pts)
        cache = polyring._kernel_plan
        for d in range(cache.cache_info().maxsize + 1):  # other monomial sets
            monomial_values([(d, 0, 0), (0, d, 1)], pts)
        misses = cache.cache_info().misses
        again = monomial_values(exps, pts)
        assert cache.cache_info().misses == misses + 1  # planned afresh
        assert again.tobytes() == first.tobytes()
        assert_bit_equal_to_running_products(again, exps, pts)


class TestSquaredNorms:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_equal_to_row_sum(self, data):
        n = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(0, 64))
        X = data.draw(hnp.arrays(np.float64, (rows, n),
                                 elements=st.floats(allow_nan=False)))
        with np.errstate(over="ignore"):  # huge and infinite entries included
            got, ref = squared_norms(X), np.sum(X * X, axis=1)
        assert got.shape == ref.shape == (rows,) and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_strided_rows(self):
        # a column slice of a wider array, as a row block of chart points is
        X = np.random.default_rng(3).normal(size=(1000, 5))[::3, 1:4]
        assert squared_norms(X).tobytes() == np.sum(X * X, axis=1).tobytes()


class TestRingOps:
    def test_cancellation(self):
        x, y = variables(2)
        assert (x + y) + (x - y) == 2.0 * x

    def test_square(self):
        (x,) = variables(1)
        assert x * x == x ** 2

    def test_numpy_integer_power(self):
        (x,) = variables(1)
        assert x ** np.int64(2) == x * x

    @pytest.mark.parametrize("exponent", [1.5, -1])
    def test_power_needs_non_negative_integer(self, exponent):
        (x,) = variables(1)
        with pytest.raises(ValueError):
            x ** exponent

    def test_scale_by_zero(self):
        (x,) = variables(1)
        z = x ** 2 * 0.0
        assert z.is_zero() and z.terms == {}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(1, 0) + MultiPoly.variable(2, 0)

    def test_partial_derivative(self):
        x, y = variables(2)
        p = x ** 3 * y + 2.0 * y
        assert p.partial(0) == 3.0 * x ** 2 * y
        assert p.partial(1) == x ** 3 + MultiPoly.constant(2, 2.0)


class TestMultiPolyType:
    def test_compares_by_dim_and_terms(self):
        x, y = variables(2)
        assert x + y == MultiPoly(2, {(0, 1): 1.0, (1, 0): 1.0})
        assert x != MultiPoly(3, {(1, 0, 0): 1.0})  # the same coefficient, other dim
        assert MultiPoly.zero(1) != 0 and x != "x1^1" and x != x.terms

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(MultiPoly.variable(2, 0))

    def test_drops_zero_coefficients(self):
        p = MultiPoly(2, {(1, 0): 0.0, (0, 1): 0j, (0, 0): -2.5})
        assert p.terms == {(0, 0): -2.5}

    def test_construction_and_repr(self):
        terms = {(2, 0): 1.0, (1, 1): -3.0, (0, 0): 0.5}
        p, q = MultiPoly(2, terms), MultiPoly(ambient_dim=2, terms=terms)
        assert p == q and p.ambient_dim == 2 and p.terms == terms
        assert repr(p) == "MultiPoly(2, '0.5 + 1*x1^2 - 3*x1^1*x2^1')"
        assert repr(MultiPoly(1, {(2,): 1.5 - 0.25j, (0,): 1j})) == (
            "MultiPoly(1, '(0+1j) + (1.5-0.25j)*x1^2')")
        assert repr(MultiPoly(2)) == "MultiPoly(2, '0')"

    @pytest.mark.parametrize("name", ["ambient_dim", "terms"])
    def test_fields_are_frozen(self, name):
        p = MultiPoly.variable(2, 1)
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))

    def test_attributes_that_are_not_fields_are_refused(self):
        with pytest.raises(AttributeError):
            MultiPoly.variable(2, 0).foo = 1

    def test_field_assignment_raises_frozen_instance_error(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MultiPoly.variable(2, 0).terms = {}

    @pytest.mark.parametrize("dim, terms, named", [
        (1, {(1.5,): 1.0}, "(1.5,)"),
        (1, {(math.inf,): 1.0}, "(inf,)"),
        (1, {("1",): 1.0}, "('1',)"),
        (2.5, {}, "2.5"),
        ("3", {}, "'3'"),
        (2.0, {(1, 0): 1.0}, "2.0"),
    ], ids=["float-exponent", "inf-exponent", "str-exponent", "float-dim",
            "str-dim", "integral-float-dim"])
    def test_non_integer_exponent_or_dimension_raises(self, dim, terms, named):
        with pytest.raises(ValueError, match="integers?, got " + re.escape(named)):
            MultiPoly(dim, terms)

    def test_numpy_integers_are_integers(self):
        p = MultiPoly(np.int64(2), {(np.int32(1), np.uint8(2)): 1.0})
        assert p == MultiPoly(2, {(1, 2): 1.0})
        assert all(type(e) is int for e in (p.ambient_dim, *next(iter(p.terms))))


def random_int_poly(rng, n, max_degree):
    terms = {}
    for mono in monomials_up_to_degree(n, max_degree):
        c = int(rng.integers(-9, 10))
        if c and rng.random() < 0.6:
            terms[mono] = float(c)
    return MultiPoly(n, terms)


class TestRingAxioms:
    """Exact axioms on canonical forms, with small integer coefficients."""

    @pytest.mark.parametrize("seed", range(8))
    def test_axioms_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        p = random_int_poly(rng, n, 4)
        q = random_int_poly(rng, n, 4)
        s = random_int_poly(rng, n, 4)
        assert (p + q) + s == p + (q + s)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @pytest.mark.parametrize("seed", range(6))
    def test_eval_homomorphism(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        p = random_int_poly(rng, n, 3) * float(rng.uniform(0.1, 2.0))
        q = random_int_poly(rng, n, 3) * float(rng.uniform(0.1, 2.0))
        x = rng.uniform(-2.0, 2.0, size=n)
        lhs = (p * q).eval(x)
        rhs = p.eval(x) * q.eval(x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestTruncatedExponential:
    def test_order_one_is_constant(self):
        p = truncated_exponential((3.0, -1.0), 1)
        assert list(p.terms) == [(0, 0)]
        assert p.terms[(0, 0)] == 1.0 + 0.0j

    def test_order_two_axis_aligned(self):
        p = truncated_exponential((1.0, 0.0), 2)
        assert p.terms == {
            (0, 0): 1.0 + 0.0j,
            (1, 0): 1j,
        }

    def test_high_order_approximates_exponential(self):
        p = truncated_exponential((1.0, 0.0), 20)
        val = p.eval((0.5, 0.0))
        assert abs(val - cmath.exp(0.5j)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3, 7, 12, 20])
    def test_taylor_remainder_inequality(self, m):
        rng = np.random.default_rng(m)
        k = tuple(rng.uniform(-1.0, 1.0, size=2))
        p = truncated_exponential(k, m)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=2)
            y = math.hypot(*k) * float(np.linalg.norm(x))
            if y > 3.0:
                continue
            err = abs(p.eval(x) - cmath.exp(1j * float(np.dot(k, x))))
            bound = y ** m / math.factorial(m) * math.exp(y)
            assert err <= bound * (1.0 + 1e-12) + 1e-15

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            truncated_exponential((1.0,), 0)


class TestTextFormat:
    def test_examples_round_trip(self):
        x, y = variables(2)
        polys = [
            x ** 2 + y ** 2,
            MultiPoly.constant(2, 1.0),
            -3.0 * x * y + 0.125 * y ** 3 - 2.0,
            MultiPoly.zero(2),
            MultiPoly(2, {(1, 0): 1e-17, (0, 2): -7.25}),
        ]
        for p in polys:
            text = format_poly(p)
            q = parse_poly(text, ambient_dim=2)
            assert q == p
            assert format_poly(q) == text

    @pytest.mark.parametrize("seed", range(10))
    def test_random_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 4))
        terms = {}
        for mono in monomials_up_to_degree(n, 4):
            if rng.random() < 0.4:
                terms[mono] = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        p = MultiPoly(n, terms)
        q = parse_poly(format_poly(p), ambient_dim=n)
        assert q == p

    def test_complex_coefficients_round_trip(self):
        p = MultiPoly(1, {(2,): 1.5 - 0.25j, (0,): 1j})
        q = parse_poly(format_poly(p), ambient_dim=1)
        assert q == p

    def test_scientific_notation_minus(self):
        p = parse_poly("1e-05*x1^2-3", ambient_dim=1)
        assert p.terms[(2,)] == 1e-05
        assert p.terms[(0,)] == -3.0

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_poly("")
        with pytest.raises(ValueError):
            parse_poly("2*")
        with pytest.raises(ValueError):
            parse_poly("x0^2")
        with pytest.raises(ValueError):
            parse_poly("x3^1", ambient_dim=2)
