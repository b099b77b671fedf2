import math

import numpy as np
import pytest

from gaussvar.approxlemma import (
    alpha_gap,
    cm_brute,
    cm_closed_form,
    cm_record,
    cm_table,
    cstar,
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
