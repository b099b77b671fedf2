import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvar import approxlemma
from gaussvar.approxlemma import (
    alpha_gap,
    cm_brute,
    cm_closed_form,
    cm_record,
    cm_table,
    cstar,
    check_k,
    default_error_grid,
    log_cm,
    records_to_csv,
    uniform_error,
    weighted_error,
)
from gaussvar.polyring import truncated_exponential

K_VALUES = (0.5, 1.0, 2.0, 4.0)


class TestClosedForm:
    def test_k1_m1_is_exactly_one(self):
        # inner quantity k^2/4 + (k/4) sqrt(k^2 + 8) = 1/4 + 3/4 = 1
        assert cm_closed_form(1.0, 1) == 1.0
        assert cm_brute(1.0, 1) == 1.0

    @pytest.mark.parametrize("k", K_VALUES)
    def test_brute_force_cross_check(self, k):
        for m in range(1, 41):
            a = cm_closed_form(k, m)
            b = cm_brute(k, m)
            assert b <= a * (1.0 + 1e-9) and a <= b * (1.0 + 1e-9)

    @pytest.mark.parametrize("k", K_VALUES)
    def test_tends_to_zero(self, k):
        values = [cm_closed_form(k, m) for m in range(1, 201)]
        assert min(values) < 1e-8
        assert all(v > 0 for v in values)

    def test_k1_drops_below_1e6_by_m60(self):
        assert any(cm_closed_form(1.0, m) < 1e-6 for m in range(1, 61))

    @pytest.mark.parametrize("k", K_VALUES)
    def test_strictly_decreasing_tail(self, k):
        start = math.ceil(4.0 * k * k)
        values = [cm_closed_form(k, m) for m in range(start, 201)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", K_VALUES)
    def test_closed_form_is_exp_of_log(self, k):
        for m in (1, 5, 40, 200):
            assert cm_closed_form(k, m) == math.exp(log_cm(k, m))

    @pytest.mark.parametrize("cm", [cm_closed_form, cm_brute])
    def test_overflow_names_k_and_m(self, cm):
        # ln C_1 at k = 54 is about 736, past the largest exp argument of a double
        with pytest.raises(OverflowError, match=r"k=54, m=1: ln C_m = 73\d\.\d+$"):
            cm(54.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_cm(1.0, 0)
        with pytest.raises(ValueError):
            cm_closed_form(0.0, 3)
        with pytest.raises(ValueError):
            cm_closed_form(1.0, 0)


def exact_slope(k, m, y):
    """g'(y) = m/y + 1 - 2y/k^2 in exact rational arithmetic."""
    k, y = Fraction(k), Fraction(y)
    return m / y + 1 - 2 * y / (k * k)


class TestNewtonPeak:
    @settings(max_examples=300, deadline=None)
    @given(k=st.floats(0.05, 50.0), m=st.integers(1, 2000))
    def test_is_the_root_of_g_prime_and_matches_the_closed_form(self, k, m):
        y, log = approxlemma._newton_peak(k, m)
        # g' is decreasing, so it is positive below its root and negative above
        few = 4 * Fraction(math.ulp(y))
        assert exact_slope(k, m, y - few) > 0 > exact_slope(k, m, y + few)
        # ln C_m sums terms of up to ~1e4 that cancel where C_m crosses 1, so
        # the agreement is relative to the largest term, not to the sum
        terms = (m * math.log(y), math.lgamma(m + 1.0), y, y * y / (k * k))
        assert abs(log - log_cm(k, m)) <= 1e-12 * max(map(abs, terms))

    @pytest.mark.parametrize("k", K_VALUES)
    def test_agrees_with_the_closed_form_to_rounding(self, k):
        for m in range(1, 201):
            assert cm_brute(k, m) == pytest.approx(cm_closed_form(k, m), rel=1e-12)

    def test_a_run_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(approxlemma, "_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"did not converge .* k=2, m=5$"):
            cm_brute(2.0, 5)


LEMMA_FUNCTIONS = (log_cm, cm_closed_form, cm_brute, cstar, alpha_gap, cm_record)


class TestDomain:
    @pytest.mark.parametrize("fn", LEMMA_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                   1e200, 1e154, 1e78, 1e-78, 1e-160, 1e-300])
    def test_a_k_outside_the_domain_is_named(self, fn, k):
        with pytest.raises(ValueError, match=re.escape(f"k={k}, m=3") + "$"):
            fn(k, 3)

    @pytest.mark.parametrize("fn", LEMMA_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("m", [2.5, 3.0, True, np.float64(3.0), "3", 2 ** 53])
    def test_an_order_outside_the_domain_is_named(self, fn, m):
        # cm_record once applied int(m), labelling C_2.5's values as m=2
        with pytest.raises(ValueError, match=r"order m must be .* at k=1\.0$"):
            fn(1.0, m)

    @pytest.mark.parametrize("fn", LEMMA_FUNCTIONS, ids=lambda f: f.__name__)
    def test_numpy_ints_are_orders(self, fn):
        assert fn(1.0, np.int64(3)) == fn(1.0, 3)
        assert fn(np.float64(1.0), np.int32(3)) == fn(1.0, 3)

    def test_a_record_holds_python_numbers(self):
        rec = cm_record(np.float64(2.0), np.int64(3))
        assert type(rec.k) is float and type(rec.m) is int and rec.m == 3

    @pytest.mark.parametrize("fn", LEMMA_FUNCTIONS[:-1], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("k", [2e-77, 1e-20, 1e20, 1e77])  # 2e-77**4 is 1.6e-307
    @pytest.mark.parametrize("m", [2, 7, 10 ** 6, 2 ** 53 - 1])
    def test_the_edges_of_the_domain_are_finite_or_overflow(self, fn, k, m):
        assert math.isfinite(log_cm(k, m))
        try:
            value = fn(k, m)
        except OverflowError as exc:
            assert f"k={k:g}, m={m}:" in str(exc) and log_cm(k, m) > 709.0
        else:
            assert math.isfinite(value)
            if value == 0.0:  # an underflow of a finite ln C_m, not an overflow
                assert log_cm(k, m) < -700.0

    @pytest.mark.parametrize("m", [2.5, True, np.float64(3.0), 0])
    def test_the_grid_error_names_a_bad_order(self, m):
        grid = default_error_grid((1.0, 0.0), num=50)
        for fn in (weighted_error, uniform_error):
            with pytest.raises(ValueError, match=r"order m must be .* at k=\[1\.0, 0\.0\]$"):
                fn((1.0, 0.0), m, grid)

    @pytest.mark.parametrize("k", [(math.nan, 0.0), (1.0, math.inf), (1e200, 1.0)])
    def test_the_error_grid_needs_a_finite_length(self, k):
        # (1e200, 1) has an infinite length: it gave a grid along the zero vector
        with pytest.raises(ValueError, match="wavevector must have a finite length"):
            default_error_grid(k)

    @pytest.mark.parametrize("k", [(math.nan, 0.0), (1.0, math.inf)])
    def test_the_weighted_error_needs_a_finite_wavevector(self, k):
        with pytest.raises(ValueError, match=r"wavevector must be finite, got k=.*, m=3$"):
            weighted_error(k, 3, np.ones((4, 2)))

    def test_check_k_returns_a_float(self):
        assert check_k(np.float64(2.0)) == 2.0 and type(check_k(2)) is float


class TestAsymptotics:
    def test_gap_to_closed_form_stays_bounded(self):
        # C_400 itself underflows to 0.0; its logarithm does not
        gaps = [log_cm(1.0, m) - cstar(1.0, m) for m in (50, 100, 200, 400)]
        assert max(gaps) - min(gaps) < 1.0

    def test_divergence_to_minus_infinity(self):
        assert cstar(1.0, 400) < cstar(1.0, 100) < 0.0

    def test_dominant_term_unit_wavevector(self):
        m = 10 ** 4
        ratio = cstar(1.0, m) / (m * math.log(m))
        assert ratio == pytest.approx(-0.5, rel=0.10)

    @pytest.mark.parametrize("k", K_VALUES)
    def test_dominant_term_with_subleading_correction(self, k):
        # the ratio approaches -1/2 like (ln(k/sqrt 2) + 1/2) / ln m, so the
        # flat 10%-by-1e4 figure only holds near k = 1 (see decisions ledger)
        for m in (10 ** 4, 10 ** 7):
            ratio = cstar(k, m) / (m * math.log(m))
            bound = (abs(math.log(k / math.sqrt(2.0))) + 1.0) / math.log(m)
            assert abs(ratio + 0.5) <= bound
        far = abs(cstar(k, 10 ** 4) / (10 ** 4 * math.log(10 ** 4)) + 0.5)
        near = abs(cstar(k, 10 ** 7) / (10 ** 7 * math.log(10 ** 7)) + 0.5)
        assert near < far

    def test_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            cstar(1.0, 1)

    @pytest.mark.parametrize("k", K_VALUES)
    def test_alpha_gap_stays_bounded(self, k):
        # no specific constant is claimed, only boundedness in m
        gaps = [alpha_gap(k, m) for m in range(10, 10 ** 5, 997)]
        assert max(gaps) - min(gaps) <= abs(math.log(k / math.sqrt(2.0))) + 1.0
        assert all(math.isfinite(g) for g in gaps)


@pytest.fixture(scope="module")
def grid_k10():
    return default_error_grid((1.0, 0.0), num=30000)


class TestUniformError:
    def test_bounded_by_cm_for_all_m(self, grid_k10):
        for m in range(1, 41):
            err = uniform_error((1.0, 0.0), m, grid_k10)
            assert err <= cm_closed_form(1.0, m) * (1.0 + 1e-6)

    def test_drops_below_1e9(self, grid_k10):
        errs = [uniform_error((1.0, 0.0), m, grid_k10) for m in range(1, 41)]
        assert min(errs) < 1e-9

    def test_two_point_monotonicity(self, grid_k10):
        e5 = uniform_error((1.0, 0.0), 5, grid_k10)
        e15 = uniform_error((1.0, 0.0), 15, grid_k10)
        assert e15 < e5

    def test_zero_wavevector_is_exact(self):
        grid = np.array([[0.5, 0.5], [1.0, -2.0], [0.0, 0.0]])
        assert uniform_error((0.0, 0.0), 7, grid) == 0.0

    def test_large_m_dominated_with_absolute_slack(self, grid_k10):
        m = next(m for m in range(1, 200) if cm_closed_form(1.0, m) < 1e-9)
        err = uniform_error((1.0, 0.0), m, grid_k10)
        assert err <= cm_closed_form(1.0, m) + 1e-12

    def test_axis_reduction_dominates_2d_sample(self):
        k = (0.8, 0.6)
        grid_1d = default_error_grid(k, num=30000)
        rng = np.random.default_rng(3)
        grid_2d = rng.uniform(-8.0, 8.0, size=(2000, 2))
        for m in (3, 8, 15):
            sup_1d = uniform_error(k, m, grid_1d)
            sup_2d = uniform_error(k, m, grid_2d)
            assert sup_2d <= sup_1d * (1.0 + 1e-4) + 1e-18

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            uniform_error((1.0,), 3, np.empty((0, 1)))

    def test_stable_route_matches_direct_at_moderate_m(self):
        # where the direct subtraction still has headroom over round-off,
        # the remainder-series evaluation must agree with it
        k = (1.0, 0.0)
        t = np.linspace(0.0, 6.0, 801)
        grid = np.stack([t, np.zeros_like(t)], axis=1)
        for m in (3, 6, 10):
            p = truncated_exponential(k, m)
            direct = np.exp(-t ** 2) * np.abs(p.eval(grid) - np.exp(1j * t))
            stable = weighted_error(k, m, grid)
            assert np.allclose(stable, direct, rtol=1e-6, atol=1e-13)


class TestPolyringConsistency:
    def test_polynomial_route_matches_taylor_sums_bitwise(self):
        # with k on the first axis the stored coefficient of x1^a is exactly
        # (i^a) * (1/a!), so the generic polynomial evaluation and the direct
        # partial sum perform identical float operations; x1^a is the
        # running product x1^(a-1) * x1, as in the evaluation kernel
        k = (1.0, 0.0)
        t = np.concatenate([[0.0], np.logspace(-3.0, 1.3, 700)])
        X = np.stack([t, np.zeros_like(t)], axis=1)
        Xc = X.astype(complex)
        for m in (1, 2, 5, 12, 20):
            p = truncated_exponential(k, m)
            via_poly = p.eval(X)
            direct = np.zeros(t.size, dtype=complex)
            prod = np.ones(t.size, dtype=complex)
            for a in range(m):
                coeff = (1j ** a) * (1.0 / math.factorial(a))
                direct = direct + coeff * prod
                prod = prod * Xc[:, 0]
            assert np.array_equal(via_poly, direct)
            w_poly = np.exp(-t ** 2) * np.abs(via_poly - np.exp(1j * t))
            w_direct = np.exp(-t ** 2) * np.abs(direct - np.exp(1j * t))
            assert np.array_equal(w_poly, w_direct)


class TestRecords:
    def test_record_fields(self):
        rec = cm_record(2.0, 5)
        assert rec.cm_closed == pytest.approx(rec.cm_brute, rel=1e-12)
        assert math.isfinite(rec.cstar)

    def test_record_m1_has_nan_asymptote(self):
        assert math.isnan(cm_record(1.0, 1).cstar)

    def test_csv_export(self, tmp_path):
        records = cm_table([0.5, 1.0], range(1, 4))
        path = tmp_path / "cm.csv"
        records_to_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,m,cm_closed,cm_brute,cstar"
        assert len(lines) == 7
        row = lines[5].split(",")  # k=1, m=2
        assert float(row[0]) == 1.0 and row[1] == "2"
        assert float(row[2]) == pytest.approx(cm_closed_form(1.0, 2), rel=1e-16)
