"""Partition enumeration and the verification harness."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eccspec as es
import eccspec.closed_form as closed_form
import eccspec.graphs as graphs
import eccspec.poly as poly
import eccspec.spectra as spectra
import eccspec.verification as verification
from eccspec.cli import main as cli_main
from eccspec.errors import OrderTooLargeError, PreconditionViolatedError
from helpers import (char_poly_by_leibniz, descending_stacks, partitions_by_brute_force,
                     quotient_matrix_loop, square_int_matrices)

# standard partition counts p(1)..p(14)
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def test_enumerate_partitions_of_four_in_order():
    # the edgeless single class [4] is kept ahead of the list
    specs = [es.MultipartiteSpec((4,)), *es.enumerate_partitions(4)]
    assert [list(s.parts) for s in specs] == [
        [4],
        [3, 1],
        [2, 2],
        [2, 1, 1],
        [1, 1, 1, 1],
    ]


def test_enumerate_partitions_counts_match_the_table():
    # p(n) counts the single class [n] too
    for n, expected in enumerate(PARTITION_COUNTS, start=1):
        assert len([es.MultipartiteSpec((n,)), *es.enumerate_partitions(n)]) == expected


@pytest.mark.parametrize("smallest", [1, 2])
def test_sweep_cap_counts_match_the_table(monkeypatch, smallest):
    # n has p(n) - 1 partitions into two or more parts, and p(n) - p(n - 1) - 1
    # of those have every part >= 2; an order at the cap passes, one above fails
    for n in range(2, len(PARTITION_COUNTS) + 1):
        count = PARTITION_COUNTS[n - 1] - 1 - (smallest - 1) * PARTITION_COUNTS[n - 2]
        monkeypatch.setattr(verification, "_SWEEP_CAP", count)
        verification._check_sweep_size(n, smallest)
        monkeypatch.setattr(verification, "_SWEEP_CAP", count - 1)
        with pytest.raises(PreconditionViolatedError):
            verification._check_sweep_size(n, smallest)


def test_enumerate_partitions_unique_and_sorted():
    specs = es.enumerate_partitions(10)
    assert len(set(specs)) == len(specs) == 41
    for spec in specs:
        assert list(spec.parts) == sorted(spec.parts, reverse=True)


def test_enumerate_partitions_have_two_or_more_classes():
    assert all(spec.p >= 2 for n in range(1, 15) for spec in es.enumerate_partitions(n))
    assert es.MultipartiteSpec((10,)) not in es.enumerate_partitions(10)
    assert es.enumerate_partitions(1) == []
    with pytest.raises(ValueError):
        es.enumerate_partitions(0)


@pytest.mark.parametrize("smallest", [2, 3])
def test_connected_partitions_with_a_smallest_part_match_the_filtered_list(smallest):
    for n in range(1, 25):
        expected = [s for s in es.enumerate_partitions(n)
                    if min(s.parts) >= smallest]
        assert list(verification._connected_partitions(n, smallest)) == expected


@pytest.mark.parametrize("smallest", [1, 2, 3])
def test_connected_partitions_match_the_brute_force_oracle(smallest):
    # order and content, and every spec equal to (and hashing like) one the
    # constructor sorts and checks
    for n in range(1, 31):
        specs = list(verification._connected_partitions(n, smallest))
        assert [spec.parts for spec in specs] == partitions_by_brute_force(n, smallest)
        for spec in specs:
            built = es.MultipartiteSpec(spec.parts)
            assert spec == built and hash(spec) == hash(built)
            assert all(type(part) is int for part in spec.parts)


def test_connected_partitions_of_zero_and_one_are_empty():
    assert list(verification._connected_partitions(0)) == []
    assert list(verification._connected_partitions(1)) == []


def test_connected_partitions_are_walked_lazily():
    # the first three of n = 200's 3.97e12 partitions come without the rest
    first = itertools.islice(verification._connected_partitions(200), 3)
    assert [spec.parts for spec in first] == [(199, 1), (198, 2), (198, 1, 1)]


def test_enumerate_partitions_reaches_the_sweep_cap():
    # p(45) = 89134 counts the single class too; order 46 is past the cap
    assert len(es.enumerate_partitions(45)) == 89133


@pytest.mark.parametrize("n", [46, 100])
def test_enumerate_partitions_past_the_sweep_cap_is_rejected_before_any_partition(monkeypatch, n):
    def refuse(n, smallest=1):
        raise AssertionError("a partition was enumerated")

    monkeypatch.setattr(verification, "_connected_partitions", refuse)
    with pytest.raises(PreconditionViolatedError, match=f"order {n} has over 100000 partitions"):
        es.enumerate_partitions(n)


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


def test_equienergetic_sweep_samples_orders_beyond_the_cap():
    report = es.verify_equienergetic(7)
    assert report.passed
    sweep = report.witnesses["equal_order_sweep"]
    assert sweep["24"] == {"available": 319, "checked": 319}
    assert sweep["28"] == {"available": 707, "checked": 400}


def test_sampled_sweep_is_the_evenly_spaced_picks_of_the_listed_order(monkeypatch):
    # the sweep is sampled from the count while the specs stream, so it must
    # keep exactly the specs that indexing the whole list would pick
    built = []
    original = verification._multipartite_adjacency

    def recording(specs):
        built.extend(specs)
        return original(specs)

    monkeypatch.setattr(verification, "_multipartite_adjacency", recording)
    assert es.verify_equienergetic(7).passed
    # order 28: the partners K_{7+i,7,7,7-i} for i = 1..5, then the sweep
    order28 = [s for s in built if s.n == 28]
    listed = list(verification._connected_partitions(28, smallest=2))
    picks = np.unique(np.linspace(0, len(listed) - 1, 400).round().astype(int))
    assert order28[5:] == [listed[i] for i in picks]


def _drop_last_eigenvalue(closed):
    value, mult = closed.entries[-1]
    tail = ((value, mult - 1),) if mult > 1 else ()
    return dataclasses.replace(closed, entries=closed.entries[:-1] + tail)


def _split_zero_entry(closed):
    # the same values, with the zero eigenvalue spread over two entries
    entries = []
    for value, mult in closed.entries:
        entries += [(value, mult - mult // 2), (value, mult // 2)] if value == 0 else [(value, mult)]
    return dataclasses.replace(closed, entries=tuple(entries))


def _first_class_grown(twin_quotient):
    # a stand-in for verification._twin_quotient that reports each member's
    # first twin class one row larger than it is
    def grown(stack):
        sizes, values, quotient, rowsums = twin_quotient(stack)
        sizes[:, 0] += 1
        return sizes, values, quotient, rowsums
    return grown


def _member_by_member(change):
    # a stand-in for verification._closed_stack that passes each closed form
    # of the stack through change(spec, closed)
    original = verification._closed_stack
    return lambda specs: [change(spec, closed) for spec, closed in zip(specs, original(specs))]


# (name in verification, stand-in built from the original, runner, its
# arguments, the checks the stand-in must flag and no others)
FAULTS = [
    pytest.param("_closed_stack",
                 lambda f: lambda specs: [_drop_last_eigenvalue(closed) for closed in f(specs)],
                 es.verify_closed_forms, (5,), {"spectrum_size"}, id="spectrum_size"),
    pytest.param("_twin_quotient", _first_class_grown,
                 es.verify_closed_forms, (6,), {"twin_classes"}, id="twin_classes"),
    pytest.param("_complement_stack", lambda f: lambda adjacency: f(adjacency) + 1,
                 es.verify_lemma2, (8,), {"complement_identity"}, id="complement_identity"),
    pytest.param("radius_upper_bound", lambda f: lambda n: f(n) - 1,
                 es.verify_bounds_and_extremals, (6,), {"radius_bound", "radius_attained"},
                 id="radius_bound"),
    pytest.param("energy_bounds", lambda f: lambda n: (f(n)[0] + 1, f(n)[1]),
                 es.verify_bounds_and_extremals, (6,), {"energy_bounds"}, id="energy_bounds"),
    pytest.param("energy_bounds", lambda f: lambda n: (f(n)[0], f(n)[0]),
                 es.verify_bounds_and_extremals, (6,),
                 {"energy_bounds", "energy_upper_equality_unique", "energy_upper_attained"},
                 id="energy_upper_equality_unique"),
    pytest.param("_connected_partitions",
                 lambda f: lambda n, smallest=1: itertools.islice(f(n, smallest), 1, None),
                 es.verify_bounds_and_extremals, (6,),
                 {"radius_argmax", "radius_attained", "energy_argmax", "energy_upper_attained"},
                 id="star_missing"),
    pytest.param("_connected_partitions",
                 lambda f: lambda n, smallest=1: itertools.chain(itertools.islice(f(n, smallest), 1),
                                                                 f(n, smallest)),
                 es.verify_bounds_and_extremals, (6,), {"radius_argmax_unique"}, id="star_twice"),
    pytest.param("_energies", lambda f: lambda eigs: [e + 1e-6 for e in f(eigs)],
                 es.verify_bounds_and_extremals, (6,),
                 {"energy_bounds", "energy_upper_attained", "one_large_class_energy"},
                 id="one_large_class_energy"),
    pytest.param("antipodal_class", lambda f: lambda g: None,
                 es.verify_equienergetic, (3,), {"antipodal_structure"}, id="antipodal_structure"),
    pytest.param("equienergetic_pair", lambda f: lambda n, i: (*f(n, i)[:2], f(n, i)[2] + 1),
                 es.verify_equienergetic, (3,), {"product_energy", "predicted_energy"},
                 id="predicted_energy"),
    pytest.param("equienergetic_pair", lambda f: lambda n, i: (f(n, i)[0], f(n, i)[0], f(n, i)[2]),
                 es.verify_equienergetic_pair, (3, 0), {"zero_absent"}, id="zero_absent"),
]


@pytest.mark.parametrize("name,standin,runner,args,checks", FAULTS)
def test_every_recorded_check_fires(monkeypatch, name, standin, runner, args, checks):
    assert runner(*args).passed
    monkeypatch.setattr(verification, name, standin(getattr(verification, name)))
    assert {v["check"] for v in runner(*args).violations} == checks


def test_product_multiplicity_check_catches_a_split_zero_entry(monkeypatch, capsys):
    # the values are untouched, so only the unmerged multiplicities differ
    original = verification.antipodal_product_spectrum
    monkeypatch.setattr(verification, "antipodal_product_spectrum",
                        lambda *args: _split_zero_entry(original(*args)))
    report = es.verify_equienergetic(3)
    assert [(v["spec"], v["check"]) for v in report.violations] == [
        ([2, 2, "x", 2], "multiplicities"), ([3, 3, "x", 2], "multiplicities")]
    assert report.violations[0]["actual"] == [[4.0, 2], [0.0, 2], [0.0, 2], [-4.0, 2]]
    assert cli_main(["verify", "--theorem", "6", "--nmax", "3"]) == 1
    capsys.readouterr()


def test_product_size_check_catches_a_dropped_eigenvalue(monkeypatch):
    original = verification.antipodal_product_spectrum
    monkeypatch.setattr(verification, "antipodal_product_spectrum",
                        lambda *args: _drop_last_eigenvalue(original(*args)))
    report = es.verify_equienergetic(3)
    assert [(v["spec"], v["check"], v["expected"], v["actual"]) for v in report.violations] == [
        ([2, 2, "x", 2], "spectrum_size", 8, 7), ([3, 3, "x", 2], "spectrum_size", 12, 11)]
    assert report.cases == es.verify_equienergetic(3).cases


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


@given(square_int_matrices())
def test_char_poly_matches_the_leibniz_oracle(rows):
    assert poly.char_poly(rows) == char_poly_by_leibniz(rows)


@given(square_int_matrices(), st.booleans())
def test_char_poly_of_a_nilpotent_matrix_is_a_power_of_x(rows, lower):
    # strictly triangular parts, and one conjugated by a unimodular matrix
    k = len(rows)
    n = np.tril(rows, -1) if lower else np.triu(rows, 1)
    u = np.eye(k, dtype=np.int64) + np.triu(np.ones((k, k), dtype=np.int64), 1)
    u_inv = np.round(np.linalg.inv(u)).astype(np.int64)
    assert np.array_equal(u @ u_inv, np.eye(k, dtype=np.int64))
    for m in (n, u @ n @ u_inv):
        assert poly.char_poly(m.tolist()) == char_poly_by_leibniz(m) == [1] + [0] * k


@pytest.mark.parametrize("n", range(4, 10))
def test_char_poly_of_the_sweep_quotients_matches_the_leibniz_oracle(monkeypatch, n):
    # the integer quotients verify_closed_forms feeds in, one per spec with a
    # singleton in enumeration order, are the block sums over the twin
    # classes of that spec's matrix
    fed = []
    monkeypatch.setattr(verification, "char_poly", lambda rows: fed.append(rows) or poly.char_poly(rows))
    assert es.verify_closed_forms(n).passed
    specs = [spec for spec in es.enumerate_partitions(n) if spec.parts[-1] == 1]
    assert len(fed) == len(specs)
    for spec, rows in zip(specs, fed):
        matrix = es.eccentricity_matrix(es.build_multipartite(spec)).matrix
        (sizes,) = spectra._twin_quotient(matrix[None])[0].tolist()
        bounds = np.cumsum([0, *sizes]).tolist()
        q, equitable = quotient_matrix_loop(matrix, [range(a, b) for a, b in zip(bounds, bounds[1:])])
        assert equitable and q.tolist() == rows
        assert poly.char_poly(rows) == char_poly_by_leibniz(rows)


def test_char_poly_of_zero_and_small_matrices():
    assert poly.char_poly([[0] * 4 for _ in range(4)]) == [1, 0, 0, 0, 0]
    assert poly.char_poly([[2, -4], [1, -2]]) == [1, 0, 0]
    assert poly.char_poly([[7]]) == [1, -7]


def test_quotient_check_reads_the_closed_form_polynomial(monkeypatch):
    # entries stay intact, so only the exact quotient identity can notice
    def tampered(spec, closed):
        if closed.quotient_poly is None:
            return closed
        *head, last = closed.quotient_poly
        return dataclasses.replace(closed, quotient_poly=(*head, last + 1))

    monkeypatch.setattr(verification, "_closed_stack", _member_by_member(tampered))
    report = es.verify_closed_forms(6)
    checks = {v["check"] for v in report.violations}
    assert checks == {"quotient_char_poly"}
    flagged = [v["spec"] for v in report.violations]
    mixed = [list(s.parts) for s in es.enumerate_partitions(6)
             if min(s.parts) == 1]
    assert flagged == mixed
    first = report.violations[0]
    assert isinstance(first["expected"], list) and isinstance(first["actual"], list)
    assert first["expected"][:-1] == first["actual"][:-1]
    assert first["expected"][-1] == first["actual"][-1] + 1


def test_quotient_check_covers_the_complete_graph(monkeypatch):
    # K_n's quotient is the 1x1 matrix [[n - 1]], with polynomial x - (n - 1)
    def tampered(spec, closed):
        if max(spec.parts) >= 2:
            return closed
        return dataclasses.replace(closed, quotient_poly=(1, -spec.n))

    monkeypatch.setattr(verification, "_closed_stack", _member_by_member(tampered))
    report = es.verify_closed_forms(6)
    assert [(v["spec"], v["check"]) for v in report.violations] == [([1] * 6, "quotient_char_poly")]
    assert report.violations[0]["actual"] == [1, -5]


def test_oracle_checks_partner_and_sweep_spectra(monkeypatch):
    # shifting every eigenvalue by +1 breaks the trace identity everywhere;
    # one pair order is one stream of stacks: the product, the partner and
    # the sweep
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
    sweep = [list(s.parts) for s in es.enumerate_partitions(8) if min(s.parts) >= 2]
    assert len(sweep) == 6
    assert all(parts in flagged for parts in sweep)
    # product, partner, then the six sweep specs in one stack of eight
    assert stacks == [8]


def _recording_solver(monkeypatch):
    # every stack handed to the eigensolver, as it was handed over
    original = verification.symmetric_eigenvalues
    calls = []
    monkeypatch.setattr(verification, "symmetric_eigenvalues",
                        lambda matrices: calls.append(matrices.copy()) or original(matrices))
    return calls


def test_single_pair_is_one_stack_of_two(monkeypatch):
    # one solver call for the stack of two: the product and the partner
    calls = _recording_solver(monkeypatch)
    report = es.verify_equienergetic_pair(3, 1)
    assert report.passed
    assert [len(stack) for stack in calls] == [2]
    assert list(report.witnesses) == ["product_order", "partner_parts", "predicted_energy",
                                      "product_energy", "partner_energy",
                                      "product_zero_multiplicity"]


def test_oversized_nmax_is_rejected_before_any_solve(monkeypatch):
    # order 4 * 4 = 16 exceeds the cap, so no smaller order is solved first
    calls = _recording_solver(monkeypatch)
    monkeypatch.setattr(graphs, "MAX_ORDER", 12)
    with pytest.raises(OrderTooLargeError):
        es.verify_equienergetic(4)
    assert calls == []


def _pair_order_sources(n):
    # the product, then every partner, of pair order n, as (label, source)
    product, partner, _ = es.equienergetic_pair(n, 0)
    specs = [es.MultipartiteSpec((n + i, n, n, n - i)) for i in range(n - 1)]
    return [([n, n, "x", 2], product), (specs[0], partner), *((spec, spec) for spec in specs[1:])]


BLOCK_DIAGONAL_STREAMS = (
    [pytest.param(list(verification._labelled(verification._connected_partitions(n, smallest=2))),
                  id=f"classes>=2,n={n}") for n in range(4, 17)]
    + [pytest.param(_pair_order_sources(n), id=f"pair_order={n}") for n in range(2, 7)]
)


@pytest.mark.parametrize("labelled", BLOCK_DIAGONAL_STREAMS)
def test_block_path_matches_the_whole_matrix_solve(monkeypatch, labelled):
    # every member is deflated: the solver core sees no member at full
    # order, and the deflated rows match the core's solve of the whole matrix
    core = spectra._solve_stack
    orders = []
    monkeypatch.setattr(spectra, "_solve_stack",
                        lambda work: orders.append(work.shape[1]) or core(work))
    members = 0
    for labels, matrices, eigs, tols, oracle in verification._numeric_stacks(labelled):
        for matrix, row, tol, found in zip(matrices, eigs, tols, oracle):
            whole = np.sort(core(matrix[None].astype(np.float64))[0])[::-1]
            norm = max(1.0, float(np.linalg.norm(matrix)))
            assert np.abs(row - whole).max() <= 1e-12 * norm
            assert tol == pytest.approx(1e-8 * norm, rel=1e-15)
            assert ([m for _, m in es.group_spectrum(row, tol).groups]
                    == [m for _, m in es.group_spectrum(whole, 1e-8 * norm).groups])
            assert found == []
            members += 1
    assert members == len(labelled)
    assert all(order < matrices.shape[1] for order in orders)


def test_a_stack_with_one_singleton_spec_is_solved_whole(monkeypatch):
    # a stack goes to the solver in one call, whatever its members' twins
    specs = [es.MultipartiteSpec(parts) for parts in [(3, 3), (4, 2), (2, 2, 2), (3, 2, 1)]]
    calls = _recording_solver(monkeypatch)
    (labels, matrices, _, _, _), = verification._numeric_stacks(verification._labelled(specs))
    assert labels == specs
    assert len(calls) == 1 and np.array_equal(calls[0], matrices)


def test_a_wrong_cached_block_is_caught_in_every_member_that_uses_it(monkeypatch):
    # raise the deflated eigenvalue of every twin class of size 3 by 1:
    # each member with a class of 3, in every stack, must fail the trace
    # identity, in enumeration order, and no other member
    monkeypatch.setattr(verification, "_STACK_CELLS", 200)
    original = spectra._twin_quotient

    def raised(work):
        sizes, values, quotient, rowsums = original(work)
        return sizes, values + (sizes == 3), quotient, rowsums

    monkeypatch.setattr(spectra, "_twin_quotient", raised)
    report = es.verify_equienergetic(4)
    expected = [list(spec.parts)
                for n in range(2, 5)
                for spec in itertools.chain(
                    (es.MultipartiteSpec((n + i, n, n, n - i)) for i in range(n - 1)),
                    verification._connected_partitions(4 * n, smallest=2))
                if 3 in spec.parts]
    flagged = [v["spec"] for v in report.violations if v["check"] == "oracle_trace"]
    assert flagged == expected


def test_a_solver_side_twin_fault_leaves_the_exact_check_alone(monkeypatch):
    # the solver's twin-quotient kernel and the exact check's are one
    # function under two names: a fault in the solver's copy moves numeric
    # eigenvalues only, so only numeric checks fire
    original = spectra._twin_quotient

    def raised(work):
        sizes, values, quotient, rowsums = original(work)
        return sizes, values + (sizes == 3), quotient, rowsums

    monkeypatch.setattr(spectra, "_twin_quotient", raised)
    report = es.verify_closed_forms(7)
    checks = {v["check"] for v in report.violations}
    assert "spectrum_values" in checks
    assert checks.isdisjoint({"twin_classes", "quotient_char_poly"})
    # a class of 3 is a large class of 3 or a clique of 3 singletons
    flagged = {tuple(v["spec"]) for v in report.violations}
    assert flagged == {spec.parts for spec in es.enumerate_partitions(7)
                       if 3 in spec.parts or spec.parts.count(1) == 3}


# runner, order, and how many partitions its largest sweep order enumerates:
# 21 of 8, and 20 of 12 into at least two parts >= 2 (lemma 2, and theorem 6
# at pair order 3)
SWEEPS = [
    (es.verify_closed_forms, 8, 21),
    (es.verify_bounds_and_extremals, 8, 21),
    (es.verify_lemma2, 12, 20),
    (es.verify_equienergetic, 3, 20),
]


@pytest.mark.parametrize("runner,n,count", SWEEPS)
def test_a_sweep_past_the_cap_is_rejected_before_any_partition(monkeypatch, runner, n, count):
    def refuse(n, smallest=1):
        raise AssertionError("a partition was enumerated")

    monkeypatch.setattr(verification, "_SWEEP_CAP", count - 1)
    monkeypatch.setattr(verification, "_connected_partitions", refuse)
    with pytest.raises(PreconditionViolatedError, match=f"over {count - 1} partitions"):
        runner(n)


@pytest.mark.parametrize("runner,n,count", SWEEPS)
def test_a_sweep_at_the_cap_runs(monkeypatch, runner, n, count):
    monkeypatch.setattr(verification, "_SWEEP_CAP", count)
    assert runner(n).passed


def test_oracle_findings_keep_the_enumeration_order(monkeypatch):
    # a stack is solved at once, but each spec's oracle findings come just
    # before its own checks, so the violations run spec by spec
    original = verification.symmetric_eigenvalues
    monkeypatch.setattr(verification, "symmetric_eigenvalues", lambda m: original(m) + 1)
    report = es.verify_closed_forms(8)
    specs = [list(s.parts) for s in es.enumerate_partitions(8)]
    flagged = [v["spec"] for v in report.violations]
    assert [specs.index(spec) for spec in flagged] == sorted(specs.index(spec) for spec in flagged)
    assert set(map(tuple, flagged)) == set(map(tuple, specs))
    for spec in specs:
        checks = [v["check"] for v in report.violations if v["spec"] == spec]
        assert checks[0] == "oracle_trace" and "spectrum_values" in checks


def _mid_stack_spec(n, smallest_part):
    # a spec of order n past the first stack, neither first nor last in its
    # own, whose smallest part is smallest_part
    per_stack = max(1, verification._STACK_CELLS // n**2)
    specs = es.enumerate_partitions(n)
    picks = [i for i, spec in enumerate(specs)
             if i > per_stack and 0 < i % per_stack < per_stack - 1 and i < len(specs) - 1
             and spec.parts[-1] == smallest_part]
    return specs[picks[len(picks) // 2]]


@pytest.mark.parametrize("smallest_part", [1, 2])
def test_a_perturbed_closed_form_flags_only_its_own_spec(monkeypatch, smallest_part):
    # one stack carries many specs; shifting one closed value of one member
    # must flag that member alone
    target = _mid_stack_spec(16, smallest_part)

    def shifted(spec, closed):
        if spec != target:
            return closed
        (value, mult), *rest = closed.entries
        return dataclasses.replace(closed, entries=((float(value) + 1e-6, mult), *rest))

    monkeypatch.setattr(verification, "_closed_stack", _member_by_member(shifted))
    report = es.verify_closed_forms(16)
    assert [(v["spec"], v["check"]) for v in report.violations] == [
        (list(target.parts), "spectrum_values")]
    assert report.cases == len(es.enumerate_partitions(16))


@pytest.mark.parametrize("smallest_part", [1, 2])
def test_the_sweep_checks_the_expansion_users_get(monkeypatch, smallest_part):
    # shifting the first value ClosedFormSpectrum.eigenvalues() gives for
    # one spec must flag that spec alone
    spec = _mid_stack_spec(16, smallest_part)
    target = es.multipartite_spectrum_closed(spec)
    original = closed_form.ClosedFormSpectrum.eigenvalues

    def shifted(closed):
        values = original(closed)
        if closed == target:
            values[0] += 1e-6
        return values

    monkeypatch.setattr(closed_form.ClosedFormSpectrum, "eigenvalues", shifted)
    report = es.verify_closed_forms(16)
    assert [(v["spec"], v["check"]) for v in report.violations] == [
        (list(spec.parts), "spectrum_values")]


def test_a_perturbed_block_quotient_flags_only_its_own_member(monkeypatch):
    # growing the first twin class of one mid-stack member with a singleton,
    # which the stand-in knows by its matrix, flags that member alone
    target = _mid_stack_spec(16, 1)
    matrix = es.eccentricity_matrix(es.build_multipartite(target)).matrix
    original = verification._twin_quotient
    hits = []

    def grown(stack):
        sizes, values, quotient, rowsums = original(stack)
        mine = (stack == matrix).all(axis=(1, 2))
        hits.append(int(mine.sum()))
        sizes[mine, 0] += 1
        return sizes, values, quotient, rowsums

    monkeypatch.setattr(verification, "_twin_quotient", grown)
    report = es.verify_closed_forms(16)
    assert sum(hits) == 1
    assert [(v["spec"], v["check"]) for v in report.violations] == [
        (list(target.parts), "twin_classes")]


def test_twin_classes_catch_an_equitable_fault_that_breaks_the_twins(monkeypatch):
    # in K_{4,3,1,1}, the class of 4's block 2(J - I) becomes a pattern with
    # the same row sums: the spec's classes stay equitable, as the block-sum
    # oracle confirms, so the quotient and its polynomial are unchanged, but
    # the class of 4 has no twin rows left
    target = es.MultipartiteSpec((4, 3, 1, 1))
    clean = es.eccentricity_matrix(es.build_multipartite(target)).matrix
    faulty = clean.copy()
    faulty[:4, :4] = [[0, 3, 1, 2], [3, 0, 2, 1], [1, 2, 0, 3], [2, 1, 3, 0]]
    classes = [range(0, 4), range(4, 7), range(7, 9)]
    assert np.array_equal(quotient_matrix_loop(faulty, classes)[0],
                          quotient_matrix_loop(clean, classes)[0])
    assert quotient_matrix_loop(faulty, classes)[1]
    original = verification._eccentricity_stack

    def planted(distances):
        matrices = original(distances)
        matrices[(matrices == clean).all(axis=(1, 2))] = faulty
        return matrices

    monkeypatch.setattr(verification, "_eccentricity_stack", planted)
    report = es.verify_closed_forms(9)
    assert [(v["spec"], v["check"]) for v in report.violations] == [
        ([4, 3, 1, 1], "spectrum_values"), ([4, 3, 1, 1], "multiplicities"),
        ([4, 3, 1, 1], "twin_classes")]
    assert report.violations[-1]["expected"] == [2, 3, 4]
    assert report.violations[-1]["actual"] == [1, 1, 1, 1, 2, 3]
    assert report.cases == len(es.enumerate_partitions(9))


def test_equienergetic_walks_the_partition_recurrence_once(monkeypatch):
    walks = []
    original = verification._sweep_sizes
    monkeypatch.setattr(verification, "_sweep_sizes",
                        lambda n, smallest=1: walks.append((n, smallest)) or original(n, smallest))
    assert es.verify_equienergetic(3).passed
    assert walks == [(12, 2)]


def _keep_roots_as_floats(monkeypatch):
    # a float-only root finder splits K_{4,2,2,1,1}'s eigenvalue -2 over two
    # closed-form entries
    exact_roots = closed_form._quotient_roots

    def float_roots(quotients):
        return [[float(root) for root in roots] for roots in exact_roots(quotients)]

    monkeypatch.setattr(closed_form, "_quotient_roots", float_roots)


def test_multiplicity_check_catches_integer_roots_kept_as_floats(monkeypatch, capsys):
    # the multiplicity check compares the closed-form entries unmerged
    _keep_roots_as_floats(monkeypatch)
    report = es.verify_closed_forms(10)
    assert any(v["check"] == "multiplicities" for v in report.violations)
    assert cli_main(["verify", "--theorem", "1", "--n", "10"]) == 1
    capsys.readouterr()


def _split_first_entry(closed):
    # the same values, with the first entry spread over two entries; an entry
    # of multiplicity 1 leaves a second entry of multiplicity 0
    (value, mult), *rest = closed.entries
    return dataclasses.replace(closed, entries=((value, mult - mult // 2), (value, mult // 2), *rest))


def _split_verdicts(eigs, tols, closed):
    # for each member, whether _check_spectrum finds its multiplicities
    # right, and whether its grouped numeric spectrum says they are
    report = es.VerificationReport("multiplicities", eigs.shape[1])
    found, sized = verification._check_spectrum(report, list(range(len(closed))), closed, eigs, tols)
    assert all(sized)
    verdicts = ["multiplicities" not in {f["check"] for f in member} for member in found]
    grouped = [[m for _, m in es.group_spectrum(row, tol).groups] == [m for _, m in c.entries]
               for row, tol, c in zip(eigs, tols, closed)]
    return verdicts, grouped


@st.composite
def stacks_with_multiplicities(draw):
    # a descending stack of order n >= 1 and, for each row, multiplicities
    # summing to n: the row's own group sizes, or cuts at random places,
    # where a repeated cut, or one at 0 or n, gives a multiplicity of 0
    eigs, tols = draw(descending_stacks().filter(lambda stack: stack[0].shape[1] >= 1))
    n = eigs.shape[1]
    mults = []
    for row, tol in zip(eigs, tols):
        if draw(st.booleans()):
            mults.append([m for _, m in es.group_spectrum(row, tol).groups])
        else:
            cuts = sorted(draw(st.lists(st.integers(0, n), max_size=n)))
            mults.append([b - a for a, b in zip([0, *cuts], [*cuts, n])])
    return eigs, tols, mults


@given(stacks_with_multiplicities())
def test_the_split_check_agrees_with_the_grouped_multiplicities(case):
    eigs, tols, mults = case
    closed = [closed_form.ClosedFormSpectrum(tuple((0.0, m) for m in row), "drawn") for row in mults]
    verdicts, grouped = _split_verdicts(eigs, tols, closed)
    assert verdicts == grouped


def test_the_split_check_agrees_on_every_sweep_member_and_product():
    # each closed form as it is, which matches, and with its first entry
    # split, which does not
    cases = []
    for n in range(4, 13):
        for stack, _, eigs, tols, _ in verification._numeric_stacks(
                verification._labelled(verification._connected_partitions(n))):
            cases.append((eigs, tols, verification._closed_stack(stack)))
    for n in range(2, 7):
        (_, _, eigs, tols, _), = verification._numeric_stacks(_pair_order_sources(n)[:1])
        cases.append((eigs, tols, [closed_form.antipodal_product_spectrum(2 * n, n, 2, 2)]))
    for eigs, tols, closed in cases:
        verdicts, grouped = _split_verdicts(eigs, tols, closed)
        assert verdicts == grouped == [True] * len(closed)
        verdicts, grouped = _split_verdicts(eigs, tols, [_split_first_entry(c) for c in closed])
        assert verdicts == grouped == [False] * len(closed)


def test_a_passing_sweep_groups_nothing(monkeypatch):
    # the harness groups a spectrum only to report a failing multiplicity check
    calls = []
    original = verification.group_spectrum
    monkeypatch.setattr(verification, "group_spectrum",
                        lambda *args: calls.append(args) or original(*args))
    assert es.verify_closed_forms(10).passed
    assert es.verify_bounds_and_extremals(10).passed
    assert es.verify_equienergetic(4).passed
    assert calls == []
    _keep_roots_as_floats(monkeypatch)
    assert not es.verify_closed_forms(10).passed
    assert calls


def test_stack_reductions_are_bit_equal_to_the_grouped_spectrum():
    # each stack's energies and radii against those of its members' grouped
    # spectra, and against the sums written out; no tolerance
    streams = [verification._labelled(verification._connected_partitions(n)) for n in range(4, 15)]
    streams += [_pair_order_sources(n) for n in range(2, 7)]
    members = 0
    for labelled in streams:
        for _, _, eigs, tols, _ in verification._numeric_stacks(labelled):
            for row, tol, e, radius in zip(eigs, tols, verification._energies(eigs), verification._radii(eigs)):
                spectrum = es.group_spectrum(row, tol)
                values = spectrum.eigenvalues
                assert e == es.energy(spectrum) == math.fsum(abs(x) for x in values)
                assert radius == es.spectral_radius(spectrum) == max(abs(values[0]), abs(values[-1]))
                members += 1
    assert members == sum(len(es.enumerate_partitions(n)) for n in range(4, 15)) + sum(range(1, 6)) + 5


def test_pair_witnesses_are_bit_equal_to_the_grouped_spectra():
    # the product's zero count and both energies, as every pair of order
    # <= 6 reports them, against the grouped spectra of the same solve
    for n in range(2, 7):
        for i in range(n - 1):
            report = es.verify_equienergetic_pair(n, i)
            product, partner, _ = es.equienergetic_pair(n, i)
            (_, _, eigs, tols, _), = verification._numeric_stacks([(0, product), (1, partner)])
            grouped = [es.group_spectrum(row, tol) for row, tol in zip(eigs, tols)]
            zeros = [sum(abs(x) < verification.ZERO_EIG_TOL for x in s.eigenvalues) for s in grouped]
            assert report.passed and zeros[1] == 0
            assert report.witnesses["product_zero_multiplicity"] == zeros[0] == 2 * n
            assert report.witnesses["product_energy"] == es.energy(grouped[0])
            assert report.witnesses["partner_energy"] == es.energy(grouped[1])


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


def test_theorem_1_sweep_leaves_the_complement_identity_to_lemma2(monkeypatch):
    # counts the stack members Lemma 2's complement kernel sees
    calls = []
    original = verification._complement_stack
    monkeypatch.setattr(verification, "_complement_stack",
                        lambda adjacency: calls.extend(adjacency) or original(adjacency))
    assert verification.verify_closed_forms(8).passed
    assert calls == []
    assert verification.verify_lemma2(8).passed
    assert len(calls) == 6


def test_lemma2_sweeps_every_spec_without_a_singleton():
    for n in range(4, 21):
        specs = es.enumerate_partitions(n)
        assert verification.verify_lemma2(n).cases == sum(1 for s in specs if s.parts[-1] >= 2)


# every sweep the stack budget reaches, with its arguments
BUDGETED_RUNS = (
    [(es.verify_closed_forms, n) for n in range(4, 11)]
    + [(es.verify_bounds_and_extremals, n) for n in range(4, 11)]
    + [(es.verify_lemma2, n) for n in range(4, 17)]
    + [(es.verify_equienergetic, 4), (es.verify_equienergetic_pair, 3, 1)]
)


@pytest.mark.parametrize("cells", [1, 10**9])
def test_reports_do_not_depend_on_the_stack_budget(monkeypatch, cells):
    # stacks of one, and one stack per order, give the default's bytes
    default = [runner(*args).to_json() for runner, *args in BUDGETED_RUNS]
    monkeypatch.setattr(verification, "_STACK_CELLS", cells)
    assert [runner(*args).to_json() for runner, *args in BUDGETED_RUNS] == default


@pytest.mark.parametrize("cells", [verification._STACK_CELLS, 200])
@pytest.mark.parametrize("name", ["_eccentricity_stack", "_complement_stack"])
def test_stacks_fill_the_entry_budget(monkeypatch, cells, name):
    # within one order every stack holds max(1, cells // n^2) members but the
    # last, which may be short: every chunk the solver's stacks come from,
    # and every chunk of Lemma 2's complement side
    monkeypatch.setattr(verification, "_STACK_CELLS", cells)
    original = getattr(verification, name)
    shapes = []
    monkeypatch.setattr(verification, name, lambda stack: shapes.append(stack.shape) or original(stack))
    stacks = 0
    for runner, *args in BUDGETED_RUNS:
        shapes.clear()
        assert runner(*args).passed
        stacks += len(shapes)
        for n, group in itertools.groupby(shapes, key=lambda shape: shape[1]):
            sizes = [k for k, *_ in group]
            full = max(1, cells // n**2)
            assert all(k * n**2 <= cells or k == 1 for k in sizes)
            assert sizes[:-1] == [full] * (len(sizes) - 1) and 1 <= sizes[-1] <= full
    assert stacks
