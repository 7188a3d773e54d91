"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np
import pytest

import eccspec as es
import eccspec.closed_form as closed_form
from eccspec.cli import main as cli_main
from helpers import quotient_matrix_loop

ORDERS = range(4, 15)
# standard partition counts p(4)..p(14); each sweep covers p(n) - 1 connected specs
PARTITIONS = {4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42, 11: 56, 12: 77, 13: 101, 14: 135}


@pytest.fixture(scope="module")
def closed_form_sweep():
    start = time.perf_counter()
    reports = {n: es.verify_closed_forms(n) for n in ORDERS}
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def bounds_sweep():
    return {n: es.verify_bounds_and_extremals(n) for n in ORDERS}


def test_criterion_1_closed_spectra_match_numerics(closed_form_sweep):
    reports, elapsed = closed_form_sweep
    total = 0
    for n in ORDERS:
        report = reports[n]
        assert report.passed, (n, report.violations[:3])
        assert report.cases == PARTITIONS[n] - 1
        assert report.max_dev < 1e-8
        total += report.cases
    assert total == 490
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: {total} partition specs, closed vs numeric dev < 1e-8, "
          f"multiplicities exact, {elapsed:.2f}s")


def test_criterion_2_doubled_complement_identity():
    checked = 0
    for n in ORDERS:
        for spec in es.enumerate_partitions(n):
            if min(spec.parts) < 2:
                continue
            g = es.build_multipartite(spec)
            assert np.array_equal(
                es.ecc_via_complement(g).matrix, es.eccentricity_matrix(g).matrix
            ), spec
            checked += 1
    print(f"\nCRITERION 2 PASS: 2*A(complement) equals the eccentricity matrix "
          f"entrywise on {checked} specs")


def test_criterion_3_quotient_spectra_are_contained():
    checked = 0
    worst = 0.0
    for n in ORDERS:
        for spec in es.enumerate_partitions(n):
            sizes = spec.parts
            if min(sizes) >= 2 or max(sizes) < 2:
                continue  # mixed specs only
            em = es.eccentricity_matrix(es.build_multipartite(spec))
            classes = []
            start = 0
            for size in [s for s in sizes if s >= 2]:
                classes.append(list(range(start, start + size)))
                start += size
            classes.append(list(range(start, spec.n)))
            q, equitable = quotient_matrix_loop(em.matrix, classes)
            assert equitable, spec
            full = es.symmetric_eigenvalues(em.matrix)
            for lam in np.linalg.eigvals(q).real:
                gap = float(np.min(np.abs(full - lam)))
                worst = max(worst, gap)
                assert gap < 1e-8, spec
            checked += 1
    print(f"\nCRITERION 3 PASS: quotient containment on {checked} mixed specs, "
          f"worst gap {worst:.2e}")


def test_criterion_4_radius_maximised_uniquely_by_the_star(bounds_sweep):
    for n, report in bounds_sweep.items():
        assert report.passed, (n, report.violations[:3])
        witness = report.witnesses["radius_argmax"]
        assert witness["parts"] == [n - 1, 1]
        bound = (n - 2) + math.sqrt(n * n - 3 * n + 3)
        assert abs(witness["value"] - bound) < 1e-10
    print("\nCRITERION 4 PASS: spectral radius maximised uniquely at [n-1, 1] "
          "within 1e-10 for n = 4..14")


def test_criterion_5_energy_bounds_hold_with_upper_equality_only_at_the_star(bounds_sweep):
    for n, report in bounds_sweep.items():
        assert report.passed, (n, report.violations[:3])
        witness = report.witnesses["energy_argmax"]
        assert witness["parts"] == [n - 1, 1]
        _, upper = es.energy_bounds(n)
        assert abs(witness["value"] - upper) <= 1e-9
    print("\nCRITERION 5 PASS: every connected spec inside the energy bounds, "
          "upper equality only at [n-1, 1], n = 4..14")


def test_criterion_6_equienergetic_pairs_and_product_spectra():
    report = es.verify_equienergetic(6)
    assert report.passed, report.violations[:3]
    assert report.max_dev < 1e-8
    # spot-check the smallest pair end to end
    product, partner, predicted = es.equienergetic_pair(2, 0)
    spectrum = es.matrix_spectrum(es.eccentricity_matrix(product).matrix)
    assert es.energy(spectrum) == pytest.approx(16, abs=1e-9)
    assert predicted == 16
    zero_mult = sum(1 for x in spectrum.eigenvalues if abs(x) < 1e-6)
    assert zero_mult == 4  # 2n zero eigenvalues in the product spectrum
    partner_eigs = es.symmetric_eigenvalues(es.eccentricity_matrix(partner).matrix)
    assert np.min(np.abs(partner_eigs)) > 1e-6
    print(f"\nCRITERION 6 PASS: pairs at energy 16(n-1) with distinct spectra for "
          f"n = 2..6 ({report.cases} cases), product spectra match the closed form")


def test_criterion_7_complete_graph_is_the_unique_energy_minimiser(bounds_sweep):
    for n, report in bounds_sweep.items():
        argmin = report.witnesses["energy_argmin"]
        assert argmin["parts"] == [1] * n
        assert argmin["unique"]
        split = report.witnesses["one_large_class_spec"]
        expected = (n - 1) + math.sqrt((n - 1) ** 2 + 8)
        assert abs(split["energy"] - expected) < 1e-9
        assert not split["is_minimal"]
        assert split["excess_over_minimum"] > 0
    print("\nCRITERION 7 PASS: K_n is the unique minimiser for n = 4..14; the "
          "[2,1,...,1] spec sits at (n-1)+sqrt((n-1)^2+8), flagged as not minimal")


def test_criterion_8_eigensolver_self_consistency():
    worst_trace, worst_frob = 0.0, 0.0
    checked = 0
    for n in ORDERS:
        for spec in es.enumerate_partitions(n):
            matrix = es.eccentricity_matrix(es.build_multipartite(spec)).matrix
            eigs = es.symmetric_eigenvalues(matrix)
            trace_dev = abs(float(eigs.sum()))
            frob_sq = float(np.sum(matrix.astype(float) ** 2))
            frob_dev = abs(float(np.sum(eigs**2)) - frob_sq)
            worst_trace = max(worst_trace, trace_dev / n)
            worst_frob = max(worst_frob, frob_dev / frob_sq)
            assert trace_dev < 1e-9 * n, spec
            assert frob_dev < 1e-8 * frob_sq, spec
            checked += 1
    print(f"\nCRITERION 8 PASS: trace and Frobenius identities on {checked} "
          f"matrices (worst {worst_trace:.2e}, {worst_frob:.2e})")


def test_criterion_9_fault_injection_turns_the_run_red(monkeypatch, capsys):
    assert cli_main(["verify", "--theorem", "1", "--n", "6"]) == 0
    capsys.readouterr()

    original = closed_form._arrow_char_poly

    def perturbed(distinct_sizes, singles):
        poly = original(distinct_sizes, singles)
        return poly[:-1] + [poly[-1] + 1]

    monkeypatch.setattr(closed_form, "_arrow_char_poly", perturbed)
    code = cli_main(["verify", "--theorem", "1", "--n", "6"])
    capsys.readouterr()
    assert code == 1
    print("\nCRITERION 9 PASS: +1 on the quotient polynomial's constant makes the "
          "closed-form verification exit non-zero")
