"""Partition enumeration and the verification harness."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eccspec as es
import eccspec.closed_form as closed_form
import eccspec.verification as verification
from eccspec.cli import main as cli_main
from eccspec.errors import PreconditionViolatedError
from helpers import char_poly_by_leibniz

# standard partition counts p(1)..p(14)
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def test_enumerate_partitions_of_four_in_order():
    specs = es.enumerate_partitions(4)
    assert [list(s.parts) for s in specs] == [
        [4],
        [3, 1],
        [2, 2],
        [2, 1, 1],
        [1, 1, 1, 1],
    ]


def test_enumerate_partitions_counts_match_the_table():
    for n, expected in enumerate(PARTITION_COUNTS, start=1):
        assert len(es.enumerate_partitions(n)) == expected


def test_enumerate_partitions_unique_and_sorted():
    specs = es.enumerate_partitions(10)
    assert len(set(specs)) == len(specs) == 42
    for spec in specs:
        assert list(spec.parts) == sorted(spec.parts, reverse=True)


def test_enumerate_partitions_connected_only_drops_single_class():
    assert len(es.enumerate_partitions(10, connected_only=True)) == 41
    assert es.enumerate_partitions(1) == [es.MultipartiteSpec((1,))]
    assert es.enumerate_partitions(1, connected_only=True) == []
    with pytest.raises(ValueError):
        es.enumerate_partitions(0)


@pytest.mark.parametrize("smallest", [2, 3])
def test_connected_partitions_with_a_smallest_part_match_the_filtered_list(smallest):
    for n in range(1, 25):
        expected = [s for s in es.enumerate_partitions(n, connected_only=True)
                    if min(s.parts) >= smallest]
        assert list(verification._connected_partitions(n, smallest)) == expected


def test_closed_forms_report_small_order():
    report = es.verify_closed_forms(5)
    assert report.passed
    assert report.cases == 6
    assert report.max_dev < 1e-8


def test_closed_forms_report_large_order():
    report = es.verify_closed_forms(14)
    assert report.passed and report.cases == 134


def test_verify_rejects_orders_below_four():
    for runner in (es.verify_closed_forms, es.verify_bounds_and_extremals, es.verify_lemma2):
        with pytest.raises(PreconditionViolatedError):
            runner(3)
    with pytest.raises(PreconditionViolatedError):
        es.verify_equienergetic(1)


def test_bounds_report_witnesses_for_order_four():
    report = es.verify_bounds_and_extremals(4)
    assert report.passed and report.cases == 4
    w = report.witnesses
    assert w["radius_argmax"]["parts"] == [3, 1]
    assert w["radius_argmax"]["value"] == pytest.approx(2 + math.sqrt(7))
    assert w["energy_argmax"]["parts"] == [3, 1]
    assert w["energy_argmax"]["value"] == pytest.approx(4 + 2 * math.sqrt(7))
    assert w["energy_argmin"]["parts"] == [1, 1, 1, 1]
    assert w["energy_argmin"]["value"] == pytest.approx(6)
    assert w["energy_argmin"]["unique"]
    split = w["one_large_class_spec"]
    assert split["parts"] == [2, 1, 1]
    assert split["energy"] == pytest.approx(3 + math.sqrt(17))
    assert not split["is_minimal"]
    assert split["excess_over_minimum"] > 1


def test_lemma2_report():
    report = es.verify_lemma2(8)
    assert report.passed
    assert report.cases == 6  # partitions of 8 into at least two classes of size >= 2
    assert report.max_dev == 0.0


def test_equienergetic_report_smallest_case():
    report = es.verify_equienergetic(2)
    assert report.passed
    # the lone pair at n=2: K_{2,2} (x) K_2 against K_{2,2,2,2}
    e_pair = es.energy(es.matrix_spectrum(
        es.eccentricity_matrix(es.strong_product(es.build_multipartite([2, 2]), es.complete(2))).matrix))
    e_partner = es.multipartite_spectrum_closed([2, 2, 2, 2]).energy()
    assert e_pair == pytest.approx(16) and e_partner == pytest.approx(16)


def test_fault_injection_flips_the_report(monkeypatch):
    baseline = es.verify_closed_forms(5)
    assert baseline.passed

    original = closed_form._arrow_char_poly

    def perturbed(distinct_sizes, singles):
        poly = original(distinct_sizes, singles)
        return poly[:-1] + [poly[-1] + 1]

    monkeypatch.setattr(closed_form, "_arrow_char_poly", perturbed)
    report = es.verify_closed_forms(5)
    assert not report.passed
    assert report.violations


def square_int_matrices(max_order=5, bound=20):
    return st.integers(1, max_order).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-bound, bound), min_size=k, max_size=k), min_size=k, max_size=k
        )
    )


@given(square_int_matrices())
def test_char_poly_matches_the_leibniz_oracle(rows):
    assert verification._char_poly(np.array(rows)) == char_poly_by_leibniz(rows)


@given(square_int_matrices(), st.booleans())
def test_char_poly_of_a_nilpotent_matrix_is_a_power_of_x(rows, lower):
    # strictly triangular parts, and one conjugated by a unimodular matrix
    k = len(rows)
    n = np.tril(rows, -1) if lower else np.triu(rows, 1)
    u = np.eye(k, dtype=np.int64) + np.triu(np.ones((k, k), dtype=np.int64), 1)
    u_inv = np.round(np.linalg.inv(u)).astype(np.int64)
    assert np.array_equal(u @ u_inv, np.eye(k, dtype=np.int64))
    for m in (n, u @ n @ u_inv):
        assert verification._char_poly(m) == char_poly_by_leibniz(m) == [1] + [0] * k


def test_char_poly_of_zero_and_small_matrices():
    assert verification._char_poly(np.zeros((4, 4), dtype=int)) == [1, 0, 0, 0, 0]
    assert verification._char_poly(np.array([[2, -4], [1, -2]])) == [1, 0, 0]
    assert verification._char_poly(np.array([[7]])) == [1, -7]


def test_quotient_check_reads_the_closed_form_polynomial(monkeypatch):
    # entries stay intact, so only the exact quotient identity can notice
    original = verification.multipartite_spectrum_closed

    def tampered(spec):
        closed = original(spec)
        if "quotient_poly" in closed.params:
            *head, last = closed.params["quotient_poly"]
            closed.params["quotient_poly"] = (*head, last + 1)
        return closed

    monkeypatch.setattr(verification, "multipartite_spectrum_closed", tampered)
    report = es.verify_closed_forms(6)
    checks = {v["check"] for v in report.violations}
    assert checks == {"quotient_char_poly"}
    flagged = [v["spec"] for v in report.violations]
    mixed = [list(s.parts) for s in es.enumerate_partitions(6, connected_only=True)
             if min(s.parts) == 1 and max(s.parts) >= 2]
    assert flagged == mixed
    first = report.violations[0]
    assert isinstance(first["expected"], list) and isinstance(first["actual"], list)
    assert first["expected"][:-1] == first["actual"][:-1]
    assert first["expected"][-1] == first["actual"][-1] + 1


def test_oracle_checks_partner_and_sweep_spectra(monkeypatch):
    # shifting every eigenvalue by +1 breaks the trace identity everywhere;
    # the batched step solves stacks, and single product and partner graphs
    # as stacks of one
    original = verification.symmetric_eigenvalues
    stacks = []

    def shifted(matrices):
        stacks.append(len(matrices))
        return original(matrices) + 1

    monkeypatch.setattr(verification, "symmetric_eigenvalues", shifted)
    report = es.verify_equienergetic(2)
    flagged = [v["spec"] for v in report.violations if v["check"] == "oracle_trace"]
    assert [2, 2, "x", 2] in flagged
    # [2, 2, 2, 2] is both the partner and one of the order-8 sweep specs
    assert flagged.count([2, 2, 2, 2]) == 2
    sweep = [list(s.parts) for s in es.enumerate_partitions(8, connected_only=True) if min(s.parts) >= 2]
    assert len(sweep) == 6
    assert all(parts in flagged for parts in sweep)
    # product, partner, then the six sweep specs in one stack
    assert stacks == [1, 1, 6]


def test_oracle_findings_keep_the_enumeration_order(monkeypatch):
    # a stack is solved at once, but each spec's oracle findings come just
    # before its own checks, so the violations run spec by spec
    original = verification.symmetric_eigenvalues
    monkeypatch.setattr(verification, "symmetric_eigenvalues", lambda m: original(m) + 1)
    report = es.verify_closed_forms(8)
    specs = [list(s.parts) for s in es.enumerate_partitions(8, connected_only=True)]
    flagged = [v["spec"] for v in report.violations]
    assert [specs.index(spec) for spec in flagged] == sorted(specs.index(spec) for spec in flagged)
    assert set(map(tuple, flagged)) == set(map(tuple, specs))
    for spec in specs:
        checks = [v["check"] for v in report.violations if v["spec"] == spec]
        assert checks[0] == "oracle_trace" and "spectrum_values" in checks


def test_multiplicity_check_catches_integer_roots_kept_as_floats(monkeypatch, capsys):
    # a float-only root finder splits K_{4,2,2,1,1}'s eigenvalue -2 over two
    # closed-form entries; the multiplicity check compares them unmerged
    def float_roots(int_coeffs):
        roots = np.roots(np.array(int_coeffs, dtype=np.float64))
        return sorted((float(r) for r in roots.real), reverse=True)

    monkeypatch.setattr(closed_form, "_real_roots", float_roots)
    report = es.verify_closed_forms(10)
    assert any(v["check"] == "multiplicities" for v in report.violations)
    assert cli_main(["verify", "--theorem", "1", "--n", "10"]) == 1
    capsys.readouterr()


def test_report_schema_is_json_round_trippable():
    report = es.verify_bounds_and_extremals(5)
    payload = json.loads(report.to_json())
    assert set(payload) == {"theorem", "n", "cases", "max_dev", "violations", "witnesses", "pass"}
    assert payload["pass"] is True
    assert payload["cases"] == 6
    assert payload["violations"] == []


def test_pass_flag_tracks_violations():
    report = es.VerificationReport("anything", 4)
    assert report.passed
    report.violations.append({"check": "synthetic"})
    assert not report.passed
    assert report.as_dict()["pass"] is False
