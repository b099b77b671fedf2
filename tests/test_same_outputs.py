"""tools/same_outputs.py measures a moved cell against the size of its entry."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def differences(tmp_path, name, parent, change):
    """The column lines of ``numeric_differences`` for one file pair, by column."""
    a, b = tmp_path / "parent" / name, tmp_path / "this" / name
    for path, text in ((a, parent), (b, change)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    lines = same_outputs.numeric_differences(a, b)
    return {line.split(":")[0].strip(): line for line in lines}


def figure(line):
    return float(line.rsplit(" ", 1)[1])


def test_a_gram_cell_zero_by_symmetry_is_scaled_by_its_diagonal(tmp_path):
    lines = differences(tmp_path, "gram.csv",
                        "i,j,value\n0,0,2\n0,1,0\n1,0,0\n1,1,8\n",
                        "i,j,value\n0,0,2\n0,1,1e-15\n1,0,0\n1,1,8\n")
    assert "max abs 1e-15" in lines["value"]
    assert "sqrt(G_ii G_jj)" in lines["value"]
    assert figure(lines["value"]) == pytest.approx(1e-15 / 4.0)  # sqrt(2 * 8)
    assert figure(lines["i"]) == figure(lines["j"]) == 0.0


def test_a_basis_coefficient_is_scaled_by_its_basis_element(tmp_path):
    lines = differences(tmp_path, "basis.csv",
                        "basis_index,monomial_exponents,coefficient\n"
                        "0,0 0,1\n1,1 0,2\n1,0 1,-4\n",
                        "basis_index,monomial_exponents,coefficient\n"
                        "0,0 0,1\n1,1 0,2.000000000000004\n1,0 1,-4\n")
    assert figure(lines["coefficient"]) == pytest.approx(4e-15 / 4.0, rel=0.1)


def test_a_residual_is_scaled_by_f_norm_and_other_columns_by_their_cell(tmp_path):
    lines = differences(tmp_path, "projection.csv",
                        "D,residual_norm,f_norm,rel_residual\n2,0,3,0\n4,0.5,3,0.25\n",
                        "D,residual_norm,f_norm,rel_residual\n2,3e-16,3,1e-16\n4,0.5,3,0.25\n")
    assert figure(lines["residual_norm"]) == pytest.approx(1e-16)
    assert "max rel inf" in lines["rel_residual"]  # a zero cell scaled by itself
    assert math.isinf(figure(lines["rel_residual"]))


def test_a_rel_gap_is_compared_by_its_absolute_difference(tmp_path):
    lines = differences(tmp_path, "equivalence.csv",
                        "pair,lhs,rhs,rel_gap\n"
                        "coord1_sq_vs_itself,0.5,0.5,6.6e-15\n"
                        "exp_target_vs_one,1,1.5,0.33\n",
                        "pair,lhs,rhs,rel_gap\n"
                        "coord1_sq_vs_itself,0.5,0.5,7.12e-15\n"
                        "exp_target_vs_one,1,1.5,0.33\n")
    assert "max rel to 1 " in lines["rel_gap"]
    assert figure(lines["rel_gap"]) == pytest.approx(5.2e-16)
    assert "max abs 5.2e-16" in lines["rel_gap"]


def test_nan_beside_nan_is_no_difference(tmp_path):
    # the lemma's cstar column is NaN where the closed form does not apply
    lines = differences(tmp_path, "cm.csv",
                        "m,cstar,cbrute\n1,nan,2\n2,nan,3\n",
                        "m,cstar,cbrute\n1,nan,2\n2,nan,3.5\n")
    assert lines["cstar"] == "  cstar: max abs 0, max rel 0"
    assert figure(lines["cbrute"]) == pytest.approx(0.5 / 3.0, rel=1e-2)  # printed to 3 digits


def test_a_leading_nan_does_not_hide_a_later_gap(tmp_path):
    lines = differences(tmp_path, "cm.csv",
                        "m,cstar\n1,nan\n2,4\n3,5\n",
                        "m,cstar\n1,nan\n2,4\n3,6\n")
    assert "max abs 1," in lines["cstar"]
    assert figure(lines["cstar"]) == pytest.approx(0.2)


def test_nan_beside_a_number_reads_inf(tmp_path):
    lines = differences(tmp_path, "cm.csv",
                        "m,cstar\n1,nan\n2,4\n",
                        "m,cstar\n1,1\n2,5\n")
    assert lines["cstar"] == "  cstar: max abs inf, max rel inf"
