"""The stdlib integer-polynomial core, against oracles that share none of its
arithmetic."""

import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from eccspec.poly import char_poly, horner, times_linear
from helpers import det_by_elimination, square_int_matrices

POLY = pathlib.Path(__file__).resolve().parent.parent / "src" / "eccspec" / "poly.py"


def power_sum(p, x):
    return sum(c * x ** (len(p) - 1 - i) for i, c in enumerate(p))


@settings(max_examples=100, deadline=None)
@given(square_int_matrices(max_order=10))
def test_char_poly_matches_the_elimination_determinant_at_order_plus_one_points(rows):
    # k + 1 distinct points fix a monic polynomial of degree k
    k = len(rows)
    p = char_poly(rows)
    assert len(p) == k + 1 and p[0] == 1
    for x in range(-k, k + 1, 2):
        shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)] for i, row in enumerate(rows)]
        assert power_sum(p, x) == det_by_elimination(shifted)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 0, 0, -3, 1, 7]), min_size=k, max_size=k),
    min_size=k, max_size=k)))
def test_char_poly_of_mostly_zero_matrices_matches_the_elimination_determinant(rows):
    # zeros are common, so many steps have an all-zero column above the
    # diagonal (one times_linear each) and the row products skip entries
    k = len(rows)
    p = char_poly(rows)
    for x in range(-k, k + 1, 2):
        shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)] for i, row in enumerate(rows)]
        assert power_sum(p, x) == det_by_elimination(shifted)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.integers(-20, 20), st.integers(-20, 20))
def test_times_linear_and_horner_agree_with_a_power_sum(p, d, x):
    assert horner(p, x) == power_sum(p, x)
    product = times_linear(p, d)
    assert len(product) == len(p) + 1
    assert power_sum(product, x) == power_sum(p, x) * (x - d)


def test_poly_imports_only_the_standard_library():
    # loaded by path: importing eccspec.poly would run the package's
    # __init__, which imports numpy
    code = (
        "import importlib.util as u, sys; s = u.spec_from_file_location('poly', sys.argv[1]); "
        "m = u.module_from_spec(s); s.loader.exec_module(m); "
        "assert 'numpy' not in sys.modules; print(m.char_poly([[0, 1], [1, 0]]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(POLY)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1, 0, -1]"
