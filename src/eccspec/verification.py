"""Exhaustive numeric verification of the closed-form results.

Each verifier enumerates integer partitions, builds the actual graphs, runs
the library's own eigensolver (Householder + implicit QL, no LAPACK) on their
eccentricity matrices, and compares against the closed forms and bounds.
Every numeric spectrum comes from one step, `_numeric_spectra`, which solves
the equal-order matrices of a sweep in stacks of at most `_CHUNK` and checks
each spectrum against the trace (zero) and Frobenius (squared norm)
identities before handing it on, so findings keep the enumeration order.
The equitable quotient of a mixed spec is checked exactly: its integer
characteristic polynomial must equal the closed form's quotient polynomial
times the deflated factors.
Findings land in a VerificationReport; a report passes exactly when its
violations list is empty.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .closed_form import (
    _poly_mul,
    antipodal_product_spectrum,
    energy_bounds,
    equienergetic_pair,
    multipartite_spectrum_closed,
    radius_upper_bound,
)
from .eccentricity import ecc_via_complement, eccentricity_matrix
from .errors import PreconditionViolatedError
from .graphs import (
    MultipartiteSpec,
    all_pairs_distances,
    antipodal_class,
    build_multipartite,
    complete,
    strong_product,
)
from .spectra import (
    _grouping_tol,
    energy,
    group_spectrum,
    quotient_matrix,
    spectral_radius,
    symmetric_eigenvalues,
)

TOL_MATCH = 1e-8          # closed vs numeric eigenvalue agreement
TOL_RADIUS = 1e-10
TOL_ENERGY = 1e-9
TOL_TRACE = 1e-9          # |sum of eigenvalues| below TOL_TRACE * n
TOL_FROBENIUS = 1e-8      # relative error of sum(eig^2) vs squared norm
ZERO_EIG_TOL = 1e-6
UNIQUENESS_MARGIN = 1e-8
GROUP_CHECK_CAP = 400     # numeric energy checks per graph order in the
                          # equal-order equienergeticity sweep; exhaustive for
                          # orders up to 24, sampled beyond to keep big CLI
                          # sweeps responsive
_CHUNK = 16               # matrices per stacked eigensolve: larger stacks
                          # save little more call overhead and raise peak
                          # memory


@dataclass
class VerificationReport:
    """Outcome of one verification run; passes iff no violations were recorded."""

    theorem: str
    n: int
    cases: int = 0
    max_dev: float = 0.0
    violations: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "cases": self.cases,
            "max_dev": self.max_dev,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "pass": self.passed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def enumerate_partitions(n: int, connected_only: bool = False) -> list[MultipartiteSpec]:
    """All partitions of n in non-increasing order, largest-first ordering.

    With connected_only=True the single-class partition [n] is dropped, since
    it names an edgeless graph.
    """
    if n < 1:
        raise ValueError(f"partitions need n >= 1, got {n}")
    specs = list(_connected_partitions(n))
    return specs if connected_only else [MultipartiteSpec((n,)), *specs]


def _connected_partitions(n: int, smallest: int = 1):
    # partitions of n into at least two parts, each >= smallest, in the
    # order of enumerate_partitions; a part that would leave a remainder
    # below smallest is never tried
    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield MultipartiteSpec(tuple(prefix))
            return
        for k in range(min(remaining, cap), smallest - 1, -1):
            if 0 < remaining - k < smallest:
                continue
            prefix.append(k)
            yield from rec(remaining - k, k, prefix)
            prefix.pop()

    return rec(n, n - 1, [])


def _multipartite(specs):
    return ((spec, build_multipartite(spec)) for spec in specs)


def _record(report: VerificationReport, dev: float) -> None:
    if dev > report.max_dev:
        report.max_dev = float(dev)


def _violation(report, spec, check, expected, actual) -> None:
    report.violations.append(
        {
            "spec": list(spec.parts) if isinstance(spec, MultipartiteSpec) else spec,
            "check": check,
            "expected": expected,
            "actual": actual,
        }
    )


def _numeric_spectra(report, labelled_graphs):
    """Yield (label, graph, eccentricity matrix, spectrum) for each
    (label, graph) pair, in order; the graphs share one order.

    The module's only call into the eigensolver, so no numeric spectrum
    escapes the oracle.  The matrices are built and solved in stacks of at
    most _CHUNK, and the trace and Frobenius sums of a stack are reduced at
    once; a pair's oracle findings are recorded just before it is yielded.
    Each spectrum is grouped at matrix_spectrum's default tolerance.  The
    matrices are integer, so their squared norms are exact.
    """
    pairs = iter(labelled_graphs)
    while chunk := list(itertools.islice(pairs, _CHUNK)):
        matrices = np.stack([eccentricity_matrix(g).matrix for _, g in chunk])
        eigs = symmetric_eigenvalues(matrices)
        trace_dev = np.abs(eigs.sum(axis=1))
        frob_sq = np.sum(matrices.astype(np.float64) ** 2, axis=(1, 2))
        sq_dev = np.abs(np.sum(eigs**2, axis=1) - frob_sq)
        order = eigs.shape[1]
        for i, (label, g) in enumerate(chunk):
            if trace_dev[i] >= TOL_TRACE * order:
                _violation(report, label, "oracle_trace", 0.0, float(trace_dev[i]))
            if sq_dev[i] >= TOL_FROBENIUS * max(frob_sq[i], 1.0):
                _violation(report, label, "oracle_frobenius",
                           float(frob_sq[i]), float(frob_sq[i] + sq_dev[i]))
            spectrum = group_spectrum(eigs[i].tolist(), _grouping_tol(frob_sq[i]))
            yield label, g, matrices[i], spectrum


def _char_poly(a) -> list[int]:
    # det(xI - a) of an integer matrix, leading coefficient first, by
    # Faddeev-LeVerrier over Python ints: M_i = a M_{i-1} + c_{i-1} I and
    # c_i = -tr(a M_i) / i, where the division is exact
    a = np.asarray(a).astype(object)
    identity = np.eye(len(a), dtype=object)
    coeffs = [1]
    m = np.zeros_like(identity)
    for i in range(1, len(a) + 1):
        m = a @ m + coeffs[-1] * identity
        coeffs.append(-(np.trace(a @ m) // i))
    return coeffs


def _check_complement_identity(report, spec, g, matrix) -> None:
    # Lemma 2: on diameter-2 specs the eccentricity matrix is 2*A(complement)
    dev = float(np.max(np.abs(ecc_via_complement(g).matrix - matrix)))
    _record(report, dev)
    if dev != 0.0:
        _violation(report, spec, "complement_identity", 0, dev)


def verify_closed_forms(n: int) -> VerificationReport:
    """Check the closed-form spectra against the numeric eigensolver for every
    partition of n with at least two classes.

    Also checks the doubled-complement identity on specs whose classes all
    have size >= 2.  On mixed specs the quotient over the large classes and
    the clique must be equitable, and its characteristic polynomial must
    equal params["quotient_poly"] times (x - 2(m - 1)) for each large class
    that repeats an earlier size m: an integer identity, with no tolerance.
    """
    if n < 4:
        raise PreconditionViolatedError(f"verification sweep is defined for n >= 4, got {n}")
    report = VerificationReport("multipartite_closed_spectra", n)
    specs = enumerate_partitions(n, connected_only=True)
    for spec, g, matrix, numeric in _numeric_spectra(report, _multipartite(specs)):
        report.cases += 1
        closed = multipartite_spectrum_closed(spec)

        closed_eigs = closed.eigenvalues()
        numeric_eigs = np.array(numeric.eigenvalues)
        if len(closed_eigs) != len(numeric_eigs):
            _violation(report, spec, "spectrum_size", len(numeric_eigs), len(closed_eigs))
            continue
        dev = float(np.max(np.abs(closed_eigs - numeric_eigs)))
        _record(report, dev)
        if dev >= TOL_MATCH:
            _violation(
                report, spec, "spectrum_values", numeric_eigs.tolist(), closed_eigs.tolist()
            )
        if [m for _, m in closed.entries] != [m for _, m in numeric.groups]:
            _violation(
                report,
                spec,
                "multiplicities",
                [[v, m] for v, m in numeric.groups],
                [[float(v), m] for v, m in closed.entries],
            )

        if all(size >= 2 for size in spec.parts):
            _check_complement_identity(report, spec, g, matrix)
        elif any(size >= 2 for size in spec.parts):
            # build_multipartite lays classes out largest first: each large
            # class, then the singletons, merged into one clique class
            large = [size for size in spec.parts if size >= 2]
            classes = np.split(np.arange(spec.n), np.cumsum(large))
            q, equitable = quotient_matrix(matrix, classes)
            if not equitable:
                _violation(report, spec, "quotient_equitable", True, False)
                continue
            expected = list(closed.params["quotient_poly"])
            for prev, size in zip(large, large[1:]):
                if size == prev:
                    expected = _poly_mul(expected, [1, -2 * (size - 1)])
            actual = _char_poly(q.astype(np.int64))
            if actual != expected:
                _violation(report, spec, "quotient_char_poly", expected, actual)
    report.witnesses["partitions_checked"] = report.cases
    return report


def verify_lemma2(n: int) -> VerificationReport:
    """Entrywise identity ecc matrix == 2*A(complement) for every spec of n
    whose classes all have size >= 2."""
    if n < 4:
        raise PreconditionViolatedError(f"verification sweep is defined for n >= 4, got {n}")
    report = VerificationReport("complement_identity", n)
    for spec in _connected_partitions(n, smallest=2):
        report.cases += 1
        g = build_multipartite(spec)
        _check_complement_identity(report, spec, g, eccentricity_matrix(g).matrix)
    report.witnesses["specs_checked"] = report.cases
    return report


def verify_bounds_and_extremals(n: int) -> VerificationReport:
    """Check radius and energy bounds over every connected spec of n and
    locate the extremal partitions.

    The star must be the unique radius and energy maximiser; the complete
    graph is reported (and asserted in the acceptance suite) as the unique
    energy minimiser.  The energy of the one-large-class spec [2, 1, ..., 1]
    is recorded against its closed expression and explicitly flagged as not
    minimal, because the naive reading of the extremal statement puts it at
    the minimum and the computation says otherwise.
    """
    if n < 4:
        raise PreconditionViolatedError(f"verification sweep is defined for n >= 4, got {n}")
    report = VerificationReport("radius_and_energy_bounds", n)
    ub_radius = radius_upper_bound(n)
    lb_energy, ub_energy = energy_bounds(n)
    star = MultipartiteSpec((n - 1, 1))
    cs2 = MultipartiteSpec(tuple([2] + [1] * (n - 2)))

    radii: list[tuple[float, MultipartiteSpec]] = []
    energies: list[tuple[float, MultipartiteSpec]] = []
    specs = enumerate_partitions(n, connected_only=True)
    for spec, _, _, spectrum in _numeric_spectra(report, _multipartite(specs)):
        report.cases += 1
        radius = spectral_radius(spectrum)
        e = energy(spectrum)
        radii.append((radius, spec))
        energies.append((e, spec))
        if radius > ub_radius + TOL_RADIUS:
            _violation(report, spec, "radius_bound", ub_radius, radius)
        if e < lb_energy - TOL_ENERGY or e > ub_energy + TOL_ENERGY:
            _violation(report, spec, "energy_bounds", [lb_energy, ub_energy], e)
        if spec != star and e >= ub_energy - TOL_ENERGY:
            _violation(report, spec, "energy_upper_equality_unique", "strictly below bound", e)

    radii.sort(key=lambda item: item[0], reverse=True)
    energies.sort(key=lambda item: item[0])
    best_radius, radius_argmax = radii[0]
    if radius_argmax != star:
        _violation(report, radius_argmax, "radius_argmax", list(star.parts), list(radius_argmax.parts))
    if abs(best_radius - ub_radius) > TOL_RADIUS:
        _violation(report, radius_argmax, "radius_attained", ub_radius, best_radius)
    if len(radii) > 1 and radii[1][0] > best_radius - UNIQUENESS_MARGIN:
        _violation(report, radii[1][1], "radius_argmax_unique", "strictly smaller runner-up", radii[1][0])

    min_energy, energy_argmin = energies[0]
    max_energy, energy_argmax = energies[-1]
    if energy_argmax != star:
        _violation(report, energy_argmax, "energy_argmax", list(star.parts), list(energy_argmax.parts))
    if abs(max_energy - ub_energy) > TOL_ENERGY:
        _violation(report, energy_argmax, "energy_upper_attained", ub_energy, max_energy)

    cs2_energy = next(e for e, spec in energies if spec == cs2)
    cs2_expected = (n - 1) + ((n - 1) ** 2 + 8) ** 0.5
    _record(report, abs(cs2_energy - cs2_expected))
    if abs(cs2_energy - cs2_expected) > TOL_ENERGY:
        _violation(report, cs2, "one_large_class_energy", cs2_expected, cs2_energy)

    runner_up = energies[1][0] if len(energies) > 1 else None
    report.witnesses.update(
        {
            "radius_argmax": {"parts": list(radius_argmax.parts), "value": best_radius},
            "energy_argmax": {"parts": list(energy_argmax.parts), "value": max_energy},
            "energy_argmin": {
                "parts": list(energy_argmin.parts),
                "value": min_energy,
                "unique": runner_up is None or runner_up > min_energy + UNIQUENESS_MARGIN,
            },
            "one_large_class_spec": {
                "parts": list(cs2.parts),
                "energy": cs2_energy,
                "closed_expression": cs2_expected,
                "is_minimal": bool(abs(cs2_energy - min_energy) <= TOL_ENERGY),
                "excess_over_minimum": cs2_energy - min_energy,
            },
        }
    )
    return report


def _sample_indices(count: int, cap: int) -> list[int]:
    if count <= cap:
        return list(range(count))
    picked = np.unique(np.linspace(0, count - 1, cap).round().astype(int))
    return picked.tolist()


def _check_product(report, n: int, product, predicted: int) -> tuple[float, int]:
    # K_{n,n} (x) K_2 against the antipodal product spectrum with a = n and
    # diameter 2 and against the predicted energy; returns the numeric energy
    # and zero multiplicity
    label = [n, n, "x", 2]
    ((_, _, _, spectrum),) = _numeric_spectra(report, [(label, product)])
    e_product = energy(spectrum)
    closed_eigs = antipodal_product_spectrum(2 * n, n, 2, 2).eigenvalues()
    numeric_eigs = np.array(spectrum.eigenvalues)
    dev = float(np.max(np.abs(closed_eigs - numeric_eigs)))
    _record(report, dev)
    if dev >= TOL_MATCH:
        _violation(report, label, "product_spectrum", closed_eigs.tolist(), numeric_eigs.tolist())
    zero_mult = int(np.sum(np.abs(numeric_eigs) < ZERO_EIG_TOL))
    if zero_mult != 2 * n:
        _violation(report, label, "zero_multiplicity", 2 * n, zero_mult)
    if abs(e_product - predicted) >= TOL_MATCH:
        _violation(report, label, "product_energy", predicted, e_product)
    return e_product, zero_mult


def _check_partner(report, spec, partner, e_product: float, predicted: int) -> float:
    # the partner must share the product's energy but not its zero eigenvalue
    report.cases += 1
    ((_, _, _, spectrum),) = _numeric_spectra(report, [(spec, partner)])
    e_partner = energy(spectrum)
    dev = abs(e_product - e_partner)
    _record(report, dev)
    if dev >= TOL_MATCH:
        _violation(report, spec, "pair_energy", e_product, e_partner)
    if abs(e_partner - predicted) >= TOL_MATCH:
        _violation(report, spec, "predicted_energy", predicted, e_partner)
    if np.min(np.abs(np.array(spectrum.eigenvalues))) < ZERO_EIG_TOL:
        _violation(report, spec, "zero_absent", "no zero eigenvalue", "zero present")
    return e_partner


def verify_equienergetic_pair(n: int, i: int) -> VerificationReport:
    """Check the single pair equienergetic_pair(n, i) with the same product and
    partner checks as verify_equienergetic; witnesses carry both energies."""
    product, partner, predicted = equienergetic_pair(n, i)
    spec = MultipartiteSpec((n + i, n, n, n - i))
    report = VerificationReport("equienergetic_pair", n)
    e_product, zero_mult = _check_product(report, n, product, predicted)
    e_partner = _check_partner(report, spec, partner, e_product, predicted)
    report.witnesses.update(
        {
            "product_order": product.n,
            "partner_parts": list(spec.parts),
            "predicted_energy": predicted,
            "product_energy": e_product,
            "partner_energy": e_partner,
            "product_zero_multiplicity": zero_mult,
        }
    )
    return report


def verify_equienergetic(n_max: int) -> VerificationReport:
    """Check the equienergetic pair construction for every n up to n_max.

    Per n: the strong product K_{n,n} (x) K_2 must match the antipodal product
    spectrum (including the zero eigenvalue of multiplicity 2n) and reach
    energy 16(n-1), and every partner K_{n+i,n,n,n-i} must reach the same
    energy while missing the zero eigenvalue.  On top of the pairs, all specs of order 4n whose
    classes have size >= 2 are swept (sampled above GROUP_CHECK_CAP per order)
    to confirm that equal order and equal class count force equal energy.
    """
    if n_max < 2:
        raise PreconditionViolatedError(f"pair construction needs n >= 2, got {n_max}")
    report = VerificationReport("product_equienergetic", n_max)
    sampled_orders = {}
    for n in range(2, n_max + 1):
        base = build_multipartite([n, n])
        a = antipodal_class(base)
        d = all_pairs_distances(base).diameter
        if a != n or d != 2:
            _violation(report, MultipartiteSpec((n, n)), "antipodal_structure", [n, 2], [a, d])
            continue
        predicted = 16 * (n - 1)
        e_product, _ = _check_product(report, n, strong_product(base, complete(2)), predicted)
        for i in range(0, n - 1):
            partner_spec = MultipartiteSpec((n + i, n, n, n - i))
            _check_partner(report, partner_spec, build_multipartite(partner_spec), e_product, predicted)

        # equal order + equal class count forces equal energy 4(order - p)
        order = 4 * n
        specs = list(_connected_partitions(order, smallest=2))
        picked = _sample_indices(len(specs), GROUP_CHECK_CAP)
        sampled_orders[str(order)] = {"available": len(specs), "checked": len(picked)}
        sweep = _multipartite(specs[idx] for idx in picked)
        for spec, _, _, spectrum in _numeric_spectra(report, sweep):
            report.cases += 1
            e = energy(spectrum)
            expected = float(4 * (order - spec.p))
            dev = abs(e - expected)
            _record(report, dev)
            if dev >= TOL_MATCH:
                _violation(report, spec, "equal_order_equal_p_energy", expected, e)
    report.witnesses["equal_order_sweep"] = sampled_orders
    return report
