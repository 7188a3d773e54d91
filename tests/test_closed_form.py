"""Closed-form spectra, energies, bounds, product spectra, equienergetic pairs."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccspec as es
import eccspec.closed_form as closed_form
import eccspec.exact as exact
from eccspec.errors import (
    DisconnectedSpecError,
    InvalidSpecError,
    NotDivisibleError,
    OrderTooLargeError,
    PreconditionViolatedError,
)
from eccspec.exact import Surd
from eccspec.poly import horner
from helpers import char_poly_by_leibniz, eccentricity_by_definition


def numeric_spectrum(parts):
    m = es.eccentricity_matrix(es.build_multipartite(parts)).matrix
    return es.symmetric_eigenvalues(m)


# the three regimes


def test_complete_graph_case():
    closed = es.multipartite_spectrum_closed([1, 1, 1, 1])
    assert closed.case_tag == closed_form.CASE_SPLIT_MIXED
    assert closed.entries == ((3, 1), (-1, 3))
    assert closed.quotient_poly == (1, -3)


def test_all_large_case_doubles_the_complement_spectrum():
    closed = es.multipartite_spectrum_closed([2, 2])
    assert closed.case_tag == closed_form.CASE_ALL_PARTS_GE_2
    assert closed.entries == ((2, 2), (-2, 2))
    closed = es.multipartite_spectrum_closed([4, 2])
    assert closed.entries == ((6, 1), (2, 1), (-2, 4))
    closed = es.multipartite_spectrum_closed([3, 3])
    assert closed.entries == ((4, 2), (-2, 4))


def test_split_case_keeps_exact_roots():
    closed = es.multipartite_spectrum_closed([3, 1])
    assert closed.case_tag == closed_form.CASE_SPLIT_MIXED
    assert closed.entries == ((Surd(2, 1, 7), 1), (Surd(2, -1, 7), 1), (-2, 2))
    assert closed.quotient_poly == (1, -4, -3)


def test_mixed_case_with_two_large_classes():
    # the repeated size 2 deflates to the eigenvalue 2, leaving a quadratic
    # quotient x^2 - 2x - 4 whose roots 1 +- sqrt(5) stay exact
    closed = es.multipartite_spectrum_closed([2, 2, 1])
    assert closed.quotient_poly == (1, -2, -4)
    assert closed.entries == ((Surd(1, 1, 5), 1), (2, 1), (Surd(1, -1, 5), 1), (-2, 2))
    assert closed.energy_exact() == Surd(6, 2, 5)
    assert np.allclose(closed.eigenvalues(), numeric_spectrum([2, 2, 1]), atol=1e-9)


def test_one_distinct_large_size_is_exact():
    for n in range(2, 15):
        for spec in es.enumerate_partitions(n):
            if len({size for size in spec.parts if size >= 2}) > 1:
                continue
            closed = es.multipartite_spectrum_closed(spec)
            assert not any(isinstance(v, float) for v, _ in closed.entries), spec
            assert closed.trace() == 0, spec


@pytest.mark.parametrize("parts", [[3, 2, 1], [2, 2, 1, 1], [3, 2, 2, 1], [4, 3, 1, 1]])
def test_mixed_general_matches_the_eigensolver(parts):
    closed = es.multipartite_spectrum_closed(parts)
    assert closed.case_tag == closed_form.CASE_SPLIT_MIXED
    assert np.allclose(closed.eigenvalues(), numeric_spectrum(parts), atol=1e-9)


def test_integer_quotient_roots_stay_exact():
    # quotient polynomial x^3 - 11x^2 + 14x + 80 = (x - 8)(x - 5)(x + 2): its
    # -2 root joins the structural -2 eigenvalues as one exact entry
    closed = es.multipartite_spectrum_closed([4, 3, 3, 1, 1])
    assert closed.quotient_poly == (1, -11, 14, 80)
    for entry in [(8, 1), (5, 1), (-2, 8)]:
        assert entry in closed.entries
    assert all(type(value) is int for value, _ in closed.entries)
    assert closed.energy_exact() == 34


@pytest.mark.parametrize("specs", [
    [spec for n in range(2, 17) for spec in es.enumerate_partitions(n)],
    [es.MultipartiteSpec((3,) * 6 + (2,) + (1,) * 10)],  # lambda_min = -8
], ids=["n<=16", "K_{3^6,2,1^10}"])
def test_only_integer_quotient_roots_are_kept_as_ints(monkeypatch, specs):
    # the Horner confirmation runs only near an integer: every int root it
    # keeps is an exact zero, and no float root rounds to one
    found = []
    original = closed_form._quotient_roots

    def recording(quotients):
        roots = original(quotients)
        found.extend((poly, own) for (_, _, poly), own in zip(quotients, roots))
        return roots

    monkeypatch.setattr(closed_form, "_quotient_roots", recording)
    for spec in specs:
        closed = es.multipartite_spectrum_closed(spec)
        for value, _ in closed.entries:
            if isinstance(value, float):
                assert horner(closed.quotient_poly, round(value)) != 0
    assert found
    for poly, roots in found:
        for root in roots:
            if type(root) is int:
                assert horner(poly, root) == 0
            elif isinstance(root, float):
                assert horner(poly, round(root)) != 0


# sha256 of repr((entries, case_tag, quotient_poly, trace(), energy_exact()))
# over every spec of order 2..22, in enumeration order: every bit of those
# closed forms, their float roots included
CLOSED_FORMS_UP_TO_22 = "bc9ea32622a133b6252fc3cb18877eb525b5457b9c5b0f580b32d4c2634d45f2"


def test_stacked_closed_forms_keep_every_bit_up_to_order_22():
    # one spec at a time, and each order as one stack, as the sweep asks
    one, stacked = hashlib.sha256(), hashlib.sha256()
    for n in range(2, 23):
        specs = es.enumerate_partitions(n)
        for spec, closed in zip(specs, closed_form._closed_stack(specs)):
            for digest, c in [(one, es.multipartite_spectrum_closed(spec)), (stacked, closed)]:
                digest.update(repr((c.entries, c.case_tag, c.quotient_poly, c.trace(),
                                    c.energy_exact())).encode())
    assert one.hexdigest() == stacked.hexdigest() == CLOSED_FORMS_UP_TO_22


def test_twenty_distinct_class_sizes_match_the_eigensolver():
    # K_{20,19,...,1}: a degree-20 quotient, whose roots the arrowhead's
    # eigenvalues give to working accuracy (its expanded polynomial does not)
    parts = list(range(20, 0, -1))
    closed = es.multipartite_spectrum_closed(parts)
    numeric = es.matrix_spectrum(es.eccentricity_matrix(es.build_multipartite(parts)).matrix)
    assert [mult for _, mult in closed.entries] == [mult for _, mult in numeric.groups]
    for (value, _), (expected, _) in zip(closed.entries, numeric.groups):
        assert abs(float(value) - expected) <= 1e-9


def test_two_hundred_distinct_class_sizes():
    closed = es.multipartite_spectrum_closed(range(200, 0, -1))
    assert sum(m for _, m in closed.entries) == 20100
    assert f"{closed.energy():.12g}" == "79735.9197839"


@st.composite
def border_quotients(draw):
    # up to four distinct large sizes, each repeated at most twice, and at
    # least one singleton
    sizes = draw(st.lists(st.integers(2, 6), max_size=4, unique=True))
    counts = sorted(((m, draw(st.integers(1, 2))) for m in sizes), reverse=True)
    return counts, draw(st.integers(1, 3))


@settings(max_examples=50, deadline=None)
@given(border_quotients())
def test_border_recurrence_matches_the_leibniz_oracle(quotient):
    # the quotient from its definition: one vertex of each cell (a distinct
    # large size, then the clique) summed over every cell of the eccentricity
    # matrix; cells are laid out largest class first, as the graph is
    counts, singles = quotient
    parts = [m for m, c in counts for _ in range(c)] + [1] * singles
    ecc = eccentricity_by_definition(es.build_multipartite(parts).adjacency)
    bounds = np.cumsum([0] + [m * c for m, c in counts] + [singles])
    q = [[int(ecc[row, lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]
         for row in bounds[:-1]]
    assert closed_form._arrow_char_poly(counts, singles) == char_poly_by_leibniz(q)


def test_quotient_poly_is_carried_only_on_the_singleton_route():
    assert es.multipartite_spectrum_closed([3, 2]).quotient_poly is None
    assert es.antipodal_product_spectrum(4, 2, 2, 2).quotient_poly is None


@pytest.mark.parametrize("top", [22, 25])
def test_high_degree_quotients_give_a_full_spectrum(top):
    closed = es.multipartite_spectrum_closed(range(top, 0, -1))
    assert sum(m for _, m in closed.entries) == top * (top + 1) // 2
    assert closed.trace() == 0


@st.composite
def connected_partitions(draw):
    # 21 <= n <= 60 with up to 12 singletons and large classes of at most 16,
    # so there are always two classes and often several distinct large sizes
    n = draw(st.integers(21, 60))
    singles = draw(st.integers(0, 12))
    parts, left = [1] * singles, n - singles
    while left >= 2:
        size = draw(st.integers(2, min(left, 16)))
        parts.append(size)
        left -= size
    return parts + [1] * left


@settings(max_examples=60, deadline=None)
@given(connected_partitions())
def test_closed_form_matches_the_numeric_route_beyond_twenty(parts):
    closed = es.multipartite_spectrum_closed(parts)
    m = es.eccentricity_matrix(es.build_multipartite(parts)).matrix
    bound = 1e-9 * max(1.0, float(np.linalg.norm(m)))
    assert np.abs(closed.eigenvalues() - es.symmetric_eigenvalues(m)).max() <= bound


def test_every_partition_matches_numerically_up_to_eight():
    for n in range(2, 9):
        for spec in es.enumerate_partitions(n):
            closed = es.multipartite_spectrum_closed(spec)
            assert np.allclose(
                closed.eigenvalues(), numeric_spectrum(spec), atol=1e-9
            ), spec


def test_rejections_and_flags():
    with pytest.raises(DisconnectedSpecError):
        es.multipartite_spectrum_closed([5])
    with pytest.raises(InvalidSpecError):
        es.multipartite_spectrum_closed([])


def test_k1_takes_the_singleton_route():
    closed = es.multipartite_spectrum_closed([1])
    assert closed.entries == ((0, 1),) and type(closed.entries[0][0]) is int
    assert closed.case_tag == closed_form.CASE_SPLIT_MIXED
    assert closed.quotient_poly == (1, 0)
    with pytest.raises(DisconnectedSpecError):
        es.multipartite_spectrum_closed([2])


def test_trace_vanishes_exactly():
    for parts in ([3, 1], [2, 2], [1, 1, 1, 1, 1], [4, 1, 1], [5, 3]):
        assert es.multipartite_spectrum_closed(parts).trace() == 0
    # floats enter only through quotients over several distinct large sizes;
    # the quotient's roots sum to -quotient_poly[1] all the same
    for parts in ([3, 2, 1], [3] * 6 + [2] + [1] * 10, [5, 4, 3, 2, 1], [7, 5, 3, 1, 1]):
        trace = es.multipartite_spectrum_closed(parts).trace()
        assert trace == 0 and type(trace) is int, parts


def test_every_closed_form_up_to_order_22_has_an_exact_trace_and_energy():
    # the trace is the int 0; a spec whose entries are all exact gets the
    # exact energy sum |v| m, and one with a float gets one exactly when
    # every negative entry is exact
    for n in range(2, 23):
        for closed in closed_form._closed_stack(es.enumerate_partitions(n)):
            trace = closed.trace()
            assert trace == 0 and type(trace) is int
            energy = closed.energy_exact()
            floats = [v for v, _ in closed.entries if isinstance(v, float)]
            if not floats:
                assert energy == exact.simplify_value(sum(abs(v) * m for v, m in closed.entries))
            elif min(floats) < 0:
                assert energy is None
            else:
                assert not isinstance(energy, float)
                assert float(energy) == pytest.approx(
                    math.fsum(abs(float(v)) * m for v, m in closed.entries), rel=1e-12)


def test_trace_does_no_surd_arithmetic(monkeypatch):
    # every root that is not an integer goes through Vieta, the surds included
    closed = [es.multipartite_spectrum_closed(parts) for parts in ([3, 1], [2, 2, 1], [2] + [1] * 1000)]
    assert all(any(isinstance(v, Surd) for v, _ in c.entries) for c in closed)

    def refuse(*args):
        raise AssertionError("trace() did Surd arithmetic")

    for name in ["__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__"]:
        monkeypatch.setattr(Surd, name, refuse)
    assert [c.trace() for c in closed] == [0, 0, 0]


def test_only_integers_repeat_and_every_surd_solves_its_quadratic():
    for n in range(2, 23):
        for closed in closed_form._closed_stack(es.enumerate_partitions(n)):
            values = [v for v, _ in closed.entries]
            # strictly descending: no two entries share a value
            assert all(a > b for a, b in zip(values, values[1:])), closed
            for value, mult in closed.entries:
                if not isinstance(value, int):
                    assert mult == 1, closed
                if isinstance(value, Surd):
                    _, minus_s, c = closed.quotient_poly
                    assert value * value + minus_s * value + c == 0, closed


def test_sorted_entries_merge_integers_only():
    root, conjugate = Surd(1, 1, 5), Surd(1, -1, 5)
    pairs = [(-2, 3), (2, 1), (5, 0), (2.0, 1), (root, 1), (-2, 1), (2, 2), (conjugate, 1)]
    entries = closed_form._sorted_entries(pairs)
    # the merged 2 keeps its first place, ahead of the float 2.0 it ties
    assert entries == ((root, 1), (2, 3), (2.0, 1), (conjugate, 1), (-2, 4))
    assert [type(v) for v, _ in entries] == [Surd, int, float, Surd, int]
    assert [type(v) for v, _ in closed_form._sorted_entries([(2.0, 1), (2, 1)])] == [float, int]
    assert closed_form._sorted_entries([(3, 0), (1.5, 0)]) == ()


def test_multiplicities_sum_to_the_order():
    for n in range(2, 10):
        for spec in es.enumerate_partitions(n):
            assert sum(m for _, m in es.multipartite_spectrum_closed(spec).entries) == n


@pytest.mark.parametrize("n", range(4, 51))
def test_star_roots_reduce_to_the_radius_formula(n):
    closed = es.multipartite_spectrum_closed([n - 1, 1])
    top = closed.entries[0][0]
    assert top == Surd(n - 2, 1, n * n - 3 * n + 3)


# energies


def test_energy_examples():
    assert es.multipartite_spectrum_closed([2, 2, 2]).energy() == pytest.approx(12)
    assert es.multipartite_spectrum_closed([1] * 5).energy() == pytest.approx(8)
    assert es.multipartite_spectrum_closed([2, 1, 1]).energy() == pytest.approx(3 + math.sqrt(17))


def test_energy_exact_values():
    assert es.multipartite_spectrum_closed([2, 1, 1]).energy_exact() == Surd(3, 1, 17)
    assert es.multipartite_spectrum_closed([2, 2, 2]).energy_exact() == 12
    # its smallest quotient root is irrational and negative
    assert es.multipartite_spectrum_closed([3, 2, 1]).energy_exact() is None


@pytest.mark.parametrize("pair", [
    ([16] + [1] * 14, [3] * 6 + [2] + [1] * 10, 86),
    ([20] + [1] * 20, [4] * 4 + [2] * 9 + [1] * 6, 114),
], ids=["86", "114"])
def test_equienergetic_pairs_get_equal_exact_energies(pair):
    # the second spec of each pair has float quotient roots, all positive
    *specs, energy = pair
    for parts in specs:
        closed = es.multipartite_spectrum_closed(parts)
        assert type(closed.energy_exact()) is int and closed.energy_exact() == energy
        assert closed.energy() == float(energy)
    assert any(isinstance(v, float) for v, _ in es.multipartite_spectrum_closed(specs[1]).entries)


def test_an_integer_smallest_root_merged_with_a_structural_eigenvalue_gives_an_exact_energy():
    # lambda_min = -2 joins the structural -2; the other quotient roots are floats
    closed = es.multipartite_spectrum_closed([7, 5, 3, 1, 1])
    assert any(isinstance(v, float) for v, _ in closed.entries)
    assert closed.energy_exact() == 54
    assert closed.energy() == 54.0


def test_all_large_energy_is_four_times_order_minus_classes():
    for parts in ([2, 2], [3, 2], [4, 4, 2], [2, 2, 2, 2]):
        spec = es.as_spec(parts)
        assert es.multipartite_spectrum_closed(spec).energy() == pytest.approx(4 * (spec.n - spec.p))


def test_star_energy_attains_the_upper_bound():
    for n in (4, 7, 12):
        _, upper = es.energy_bounds(n)
        assert es.multipartite_spectrum_closed([n - 1, 1]).energy() == pytest.approx(upper, abs=1e-12)


def test_root_sum_shortcut_agrees_when_constant_term_is_positive():
    # independent set of 5 joined to a clique of 5: both roots positive
    closed = es.multipartite_spectrum_closed([5] + [1] * 5)
    _, minus_b, c = closed.quotient_poly
    b = -minus_b
    assert c > 0
    hi, lo = closed.entries[0][0], closed.entries[1][0]
    assert abs(hi) + abs(lo) == b


# bounds


def test_radius_upper_bound_values():
    assert es.radius_upper_bound(4) == pytest.approx(2 + math.sqrt(7))
    assert es.radius_upper_bound(5) == pytest.approx(3 + math.sqrt(13))
    assert es.radius_upper_bound(10) == pytest.approx(8 + math.sqrt(73))


def test_energy_bounds_values():
    assert es.energy_bounds(4) == pytest.approx((6, 4 + 2 * math.sqrt(7)))
    assert es.energy_bounds(6) == pytest.approx((10, 8 + 2 * math.sqrt(21)))
    assert es.energy_bounds(10) == pytest.approx((18, 16 + 2 * math.sqrt(73)))


def test_bounds_reject_small_orders_unless_allowed():
    with pytest.raises(PreconditionViolatedError):
        es.radius_upper_bound(3)
    with pytest.raises(PreconditionViolatedError):
        es.energy_bounds(3)
    assert es.radius_upper_bound(3, allow_small=True) == pytest.approx(1 + math.sqrt(3))
    assert es.energy_bounds(2, allow_small=True)[0] == 2


@pytest.mark.parametrize("n", [1, 0, -3])
def test_bounds_reject_orders_below_two_even_when_allowed_small(n):
    with pytest.raises(PreconditionViolatedError):
        es.radius_upper_bound(n, allow_small=True)
    with pytest.raises(PreconditionViolatedError):
        es.energy_bounds(n, allow_small=True)


def test_energy_upper_bound_is_twice_the_radius_bound_bitwise():
    for n in range(2, 10**5 + 1):
        assert es.energy_bounds(n, allow_small=True)[1] == 2 * es.radius_upper_bound(n, allow_small=True)


def test_bounds_reject_an_order_that_overflows_a_float():
    # n^2 - 3n + 3 passes the float limit just below n = 2^512; every smaller
    # n keeps the value of the formula
    n = 10**153
    assert es.radius_upper_bound(n) == (n - 2) + math.sqrt(n * n - 3 * n + 3)
    for n in (2**512, 10**400):
        with pytest.raises(PreconditionViolatedError):
            es.radius_upper_bound(n)
        with pytest.raises(PreconditionViolatedError):
            es.energy_bounds(n)


# antipodal product spectra


def test_product_spectrum_balanced_bipartite_times_edge():
    closed = es.antipodal_product_spectrum(6, 3, 2, 2)
    assert closed.case_tag == closed_form.CASE_PRODUCT_THM5
    assert closed.entries == ((8, 2), (0, 6), (-4, 4))
    assert closed.energy() == pytest.approx(32)


def test_product_spectrum_takes_numpy_integers():
    closed = es.antipodal_product_spectrum(*map(np.int64, (6, 3, 2, 2)))
    assert closed.entries == ((8, 2), (0, 6), (-4, 4))
    assert closed.trace() == 0
    assert closed.energy() == 32.0


def test_product_spectrum_k22_times_edge():
    closed = es.antipodal_product_spectrum(4, 2, 2, 2)
    assert closed.entries == ((4, 2), (0, 4), (-4, 2))


def test_product_spectrum_degenerate_fibre_size_one():
    closed = es.antipodal_product_spectrum(5, 1, 2, 3)
    assert closed.entries == ((0, 15),)


def test_product_spectrum_validation():
    with pytest.raises(NotDivisibleError):
        es.antipodal_product_spectrum(4, 3, 2, 2)
    with pytest.raises(PreconditionViolatedError):
        es.antipodal_product_spectrum(4, 2, 1, 2)
    with pytest.raises(PreconditionViolatedError):
        es.antipodal_product_spectrum(0, 1, 2, 2)


def test_product_spectrum_matches_a_built_product():
    # K_{2,2} (x) K_3: fibres of size 2, diameter 2, partner order 3
    product = es.strong_product(es.build_multipartite([2, 2]), es.complete(3))
    numeric = es.symmetric_eigenvalues(es.eccentricity_matrix(product).matrix)
    closed = es.antipodal_product_spectrum(4, 2, 2, 3)
    assert np.allclose(closed.eigenvalues(), numeric, atol=1e-10)


# equienergetic pairs


def test_pair_construction_shapes_and_prediction():
    product, partner, predicted = es.equienergetic_pair(3, 0)
    assert product.n == 12 and partner.n == 12
    assert predicted == 32
    assert partner == es.build_multipartite([3, 3, 3, 3])


def test_pair_offsets_keep_every_class_large():
    _, partner, predicted = es.equienergetic_pair(4, 2)
    assert partner == es.build_multipartite([6, 4, 4, 2])
    assert predicted == 48


def test_pair_validation():
    with pytest.raises(PreconditionViolatedError):
        es.equienergetic_pair(1, 0)
    with pytest.raises(PreconditionViolatedError):
        es.equienergetic_pair(4, 3)
    with pytest.raises(PreconditionViolatedError):
        es.equienergetic_pair(4, -1)


def test_pair_energies_agree_numerically():
    product, partner, predicted = es.equienergetic_pair(4, 1)
    e1 = es.energy(es.matrix_spectrum(es.eccentricity_matrix(product).matrix))
    e2 = es.energy(es.matrix_spectrum(es.eccentricity_matrix(partner).matrix))
    assert e1 == pytest.approx(predicted, abs=1e-9)
    assert e2 == pytest.approx(predicted, abs=1e-9)


def test_closed_form_rejects_orders_past_its_bound_before_any_arithmetic(monkeypatch):
    bound = closed_form.MAX_CLOSED_ORDER
    upper = es.multipartite_spectrum_closed([bound - 1, 1]).entries[0][0]
    assert (upper.a, upper.b, upper.r) == (bound - 2, 1, (bound - 2) ** 2 + bound - 1)

    def refuse(r):
        raise AssertionError("a radicand was reduced")

    monkeypatch.setattr(exact, "_split_square", refuse)
    for parts in ([bound, 1], [bound - 1, 1, 1], [10**12, 1, 1]):
        with pytest.raises(OrderTooLargeError):
            es.multipartite_spectrum_closed(parts)


@pytest.mark.parametrize("n", range(2, 15))
def test_eigenvalues_expand_the_sorted_entries(n):
    for spec in es.enumerate_partitions(n):
        closed = es.multipartite_spectrum_closed(spec)
        expanded = sorted((float(v) for v, m in closed.entries for _ in range(m)), reverse=True)
        assert closed.eigenvalues().tolist() == expanded


def test_star_with_a_million_leaves_is_exact():
    # roots (m - 1) +- sqrt((m - 1)**2 + m) of the star's quotient; the
    # radicand 999999000001 is squarefree, so it stays as it is
    upper, lower, clique = es.multipartite_spectrum_closed([10**6, 1]).entries
    assert (upper[0].a, upper[0].b, upper[0].r, upper[1]) == (999999, 1, 999999000001, 1)
    assert (lower[0].a, lower[0].b, lower[0].r, lower[1]) == (999999, -1, 999999000001, 1)
    assert clique == (-2, 999999) and type(clique[0]) is int
