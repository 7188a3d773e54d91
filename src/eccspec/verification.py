"""Exhaustive numeric verification of the closed-form results.

Each verifier enumerates integer partitions, builds the actual graphs, runs
the library's own eigensolver (Householder + implicit QL, no LAPACK) on their
eccentricity matrices, and compares against the closed forms and bounds.
Partitions come from one depth-first walk, in reverse lexicographic order,
each built sorted and handed on without a second sort or check.
The equal-order specs of a sweep go through the chain in stacks of at most
`_STACK_CELLS` matrix entries (or of one matrix, when it alone is larger),
so a stack holds more small matrices than large ones: one adjacency stack
built from their class labels, one stacked Seidel run, one in-place
eccentricity pass, with no Graph per spec.  Every numeric spectrum comes
from one step, `_numeric_stacks`, which solves a stack's matrices at once
into a descending (k, n) array and tests the whole stack against the trace
(zero) and Frobenius (squared norm) identities.  The solver deflates each
matrix's adjacent twin rows first, and the adjacency kernel lays each class
out contiguously, so a spec is solved through its quotient over the classes:
a spec whose classes all have size >= 2 (a direct sum of 2(J - I) blocks,
Lemma 2) needs no solve at all, and one with a singleton solves an arrowhead
over its large classes and the clique.  The closed forms of a stack come
from one `closed_form._closed_stack` call.  The checks after the solve work
on the same array: `_check_spectrum` gives every closed-vs-numeric deviation
from one array and tests every member's multiplicities against one gap test,
energies and spectral radii are one reduction each, and one call into the
solver's own twin-quotient kernel reads the classes and quotient of every
member with a singleton, K_n included; a fault planted in
`spectra._twin_quotient` reaches only the solver.  A spectrum is grouped
only to report a failing multiplicity check.  Each member's findings are
still recorded member by member, its oracle findings first, so a report
lists them in enumeration order.
Those members' exact quotients are built over the twin classes their int64
matrices show, not over a layout the spec dictates: the class sizes must be
the spec's large classes and its clique, and each quotient's integer
characteristic polynomial, by `poly.char_poly` (Berkowitz over Python ints),
must equal the closed form's quotient polynomial times the deflated factors.
Lemma 2's doubled-complement identity is checked by verify_lemma2 alone, with
the complement kernel on the same adjacency stacks.
Findings land in a VerificationReport; a report passes exactly when its
violations list is empty.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .closed_form import (
    _closed_stack,
    antipodal_product_spectrum,
    energy_bounds,
    equienergetic_pair,
    radius_upper_bound,
)
from .eccentricity import _complement_stack, _eccentricity_stack
from .errors import PreconditionViolatedError
from .graphs import (
    MultipartiteSpec,
    _multipartite_adjacency,
    _seidel,
    all_pairs_distances,
    antipodal_class,
    build_multipartite,
    check_order,
)
from .poly import char_poly, times_linear
from .spectra import (
    _energies,
    _radii,
    _splits,
    _twin_quotient,
    group_spectrum,
    grouping_tol,
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
_STACK_CELLS = 1 << 15    # matrix entries per stack, k * n^2: a stack of
                          # small matrices spreads numpy's per-call cost
                          # over many, and larger budgets raise peak memory
_SWEEP_CAP = 100_000      # partitions one sweep order may enumerate


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
        return {**vars(self), "pass": self.passed}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def enumerate_partitions(n: int) -> list[MultipartiteSpec]:
    """The partitions of n into two or more classes, each in non-increasing
    order, largest first: the connected complete multipartite graphs of
    order n.  The edgeless single class [n] is not among them.  An n with
    over _SWEEP_CAP of them (n >= 46) raises PreconditionViolatedError first.
    """
    if n < 1:
        raise ValueError(f"partitions need n >= 1, got {n}")
    _check_sweep_size(n)
    return list(_connected_partitions(n))


def _connected_partitions(n: int, smallest: int = 1):
    # partitions of n into at least two parts, each >= smallest, in reverse
    # lexicographic order, by a depth-first walk over (parts so far, what is
    # left, largest next part allowed).  A node's first partition takes all
    # that is left as its last part; its other children are pushed smallest
    # first, so the largest comes off the stack next.  Each tuple is built
    # sorted and positive, so the spec takes it as it is
    stack = [((), n, n - 1)]
    while stack:
        parts, left, cap = stack.pop()
        if left <= cap:
            yield MultipartiteSpec._from_sorted(parts + (left,))
        for part in range(smallest, min(left - smallest, cap) + 1):
            stack.append((parts + (part,), left - part, part))


def _sweep_sizes(n: int, smallest: int = 1):
    # for k = 2..n, how many partitions of k have two or more parts, each
    # >= smallest (1 or 2): p(k) - 1, or p(k) - p(k-1) - 1 with no part 1,
    # by Euler's pentagonal recurrence for p; neither count falls as k grows
    p = [1, 1]
    for k in range(2, n + 1):
        p.append(sum((-1) ** (j + 1) * p[k - g] for j in range(1, k + 1)
                     for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= k))
        yield p[k] - 1 - (smallest - 1) * p[k - 1]


def _check_sweep_size(n: int, smallest: int = 1) -> list[int]:
    # the counts of _sweep_sizes for orders 2..n, which never fall: the walk
    # stops at the first order past the cap
    sizes = list(itertools.takewhile(lambda size: size <= _SWEEP_CAP, _sweep_sizes(n, smallest)))
    if len(sizes) < n - 1:
        raise PreconditionViolatedError(f"order {n} has over {_SWEEP_CAP} partitions to sweep")
    return sizes


def _labelled(specs):
    # a spec labels itself
    return ((spec, spec) for spec in specs)


def _record(report: VerificationReport, dev: float) -> None:
    if dev > report.max_dev:
        report.max_dev = float(dev)


def _finding(spec, check, expected, actual) -> dict:
    return {
        "spec": list(spec.parts) if isinstance(spec, MultipartiteSpec) else spec,
        "check": check,
        "expected": expected,
        "actual": actual,
    }


def _violation(report, spec, check, expected, actual) -> None:
    report.violations.append(_finding(spec, check, expected, actual))


def _adjacency_stack(sources) -> np.ndarray:
    # each run of specs among equal-order sources is built by one kernel
    # call; a Graph (a pair order's product or partner) brings its own adjacency
    runs = itertools.groupby(sources, lambda s: isinstance(s, MultipartiteSpec))
    return np.concatenate([_multipartite_adjacency(list(run)) if is_spec
                           else np.stack([g.adjacency for g in run]) for is_spec, run in runs])


def _eccentricity_chunks(labelled):
    """Yield (chunk, adjacency stack, eccentricity stack) for the
    (label, source) pairs of one order n, max(1, _STACK_CELLS // n^2) at a
    time; only the last chunk may be short.

    A source is a MultipartiteSpec or a Graph.  Each stack is built by one
    call per layer: adjacency, Seidel distances, eccentricity matrices.
    """
    pairs = iter(labelled)
    first = next(pairs, None)
    if first is None:
        return
    size = max(1, _STACK_CELLS // first[1].n ** 2)
    pairs = itertools.chain([first], pairs)
    while chunk := list(itertools.islice(pairs, size)):
        adjacency = _adjacency_stack([source for _, source in chunk])
        yield chunk, adjacency, _eccentricity_stack(_seidel(adjacency))


def _numeric_stacks(labelled):
    """Yield (labels, matrices, eigenvalues, tolerances, oracle) for each
    stack of _eccentricity_chunks over the (label, source) pairs, in order;
    the sources share one order.

    The module calls the eigensolver only here, so no numeric spectrum
    escapes the oracle.  A stack's matrices are solved by one call into a
    descending (k, n) array, and its trace and Frobenius sums are reduced
    and tested at once: oracle[i] holds member i's findings, which the
    caller records just before that member's own.  The matrices are
    integer, so their squared norms are summed exactly in int64; each
    member's grouping tolerance is matrix_spectrum's default, from its norm.
    """
    for chunk, _, matrices in _eccentricity_chunks(labelled):
        labels = [label for label, _ in chunk]
        eigs = symmetric_eigenvalues(matrices)
        frob_sq = np.einsum("kij,kij->k", matrices, matrices)
        trace_dev = np.abs(eigs.sum(axis=1))
        sq_dev = np.abs(np.sum(eigs**2, axis=1) - frob_sq)
        oracle = [[] for _ in labels]
        for i in np.flatnonzero(trace_dev >= TOL_TRACE * eigs.shape[1]).tolist():
            oracle[i].append(_finding(labels[i], "oracle_trace", 0.0, float(trace_dev[i])))
        for i in np.flatnonzero(sq_dev >= TOL_FROBENIUS * np.maximum(frob_sq, 1.0)).tolist():
            oracle[i].append(_finding(labels[i], "oracle_frobenius",
                                      float(frob_sq[i]), float(frob_sq[i] + sq_dev[i])))
        yield labels, matrices, eigs, grouping_tol(frob_sq), oracle


def _sweep_report(theorem: str, n: int, smallest: int = 1) -> VerificationReport:
    if n < 4:
        raise PreconditionViolatedError(f"verification sweep is defined for n >= 4, got {n}")
    _check_sweep_size(n, smallest)
    return VerificationReport(theorem, n)


def _check_spectrum(report, labels, closed, eigs, tols) -> tuple[list[list], list[bool]]:
    """Closed forms against the numeric eigenvalues (k, n) of one stack:
    each member's size, values and unmerged multiplicities.

    Returns each member's findings, in check order, and whether its size
    matched; a size mismatch leaves no values to pair.  Each closed form is
    expanded by ClosedFormSpectrum.eigenvalues(), the expansion users get,
    and one array of the matched members gives every deviation, which goes
    to the report's max_dev.  The multiplicities are compared through where
    the groups end, with no grouping: only a member that fails is grouped,
    for its finding's group means.
    """
    found = [[] for _ in labels]
    expanded = [c.eigenvalues() for c in closed]
    n = eigs.shape[1]
    sized = [len(values) == n for values in expanded]
    for i, ok in enumerate(sized):
        if not ok:
            found[i].append(_finding(labels[i], "spectrum_size", n, len(expanded[i])))
    rows = [i for i, ok in enumerate(sized) if ok]
    if not rows:
        return found, sized
    devs = np.abs(np.array([expanded[i] for i in rows]) - eigs[rows]).max(axis=1)
    # where each member's groups end: numerically after each split and at n,
    # and in the closed form at its entries' running multiplicities, counted
    # with repeats so that an entry of multiplicity 0 never matches; the two
    # agree exactly when the multiplicities do
    ends = np.pad(_splits(eigs[rows], tols[rows]), ((0, 0), (1, 1)), constant_values=((0, 0), (0, 1)))
    closed_ends = np.bincount([row * (n + 1) + end for row, i in enumerate(rows)
                               for end in itertools.accumulate(m for _, m in closed[i].entries)],
                              minlength=ends.size).reshape(ends.shape)
    for i, dev, mismatch in zip(rows, devs.tolist(), (closed_ends != ends).any(axis=1).tolist()):
        _record(report, dev)
        if dev >= TOL_MATCH:
            found[i].append(_finding(labels[i], "spectrum_values",
                                     eigs[i].tolist(), expanded[i].tolist()))
        if mismatch:
            found[i].append(_finding(labels[i], "multiplicities",
                                     [[v, m] for v, m in group_spectrum(eigs[i], tols[i]).groups],
                                     [[float(v), m] for v, m in closed[i].entries]))
    return found, sized


def verify_closed_forms(n: int) -> VerificationReport:
    """Check the closed-form spectra against the numeric eigensolver for every
    partition of n with at least two classes.

    On every spec with a singleton, K_n included, its matrix's twin classes
    must also have the sizes of its large classes and the clique, and the
    characteristic polynomial of its quotient over them must equal its
    quotient_poly times (x - 2(m - 1)) for each large class that repeats an
    earlier size m: an integer identity, with no tolerance.  Specs whose
    classes all have size >= 2 get the spectrum check only; their
    doubled-complement identity is verify_lemma2's.
    """
    report = _sweep_report("multipartite_closed_spectra", n)
    specs = _connected_partitions(n)
    for stack, matrices, eigs, tols, oracle in _numeric_stacks(_labelled(specs)):
        closed = _closed_stack(stack)
        found, sized = _check_spectrum(report, stack, closed, eigs, tols)
        mixed = [i for i, spec in enumerate(stack) if sized[i] and spec.parts[-1] == 1]
        # exact integer quotients over the twin classes: each entry weighted
        # by its column class's size, with the row sums on the diagonal
        sizes, _, quotients, rowsums = _twin_quotient(matrices[mixed])
        quotients = quotients * sizes[:, None, :]
        index = np.arange(sizes.shape[1])
        quotients[:, index, index] = rowsums
        for row, i in enumerate(mixed):
            # the spec's classes against the twin classes, as multisets of sizes
            large = [size for size in stack[i].parts if size >= 2]
            classes = sorted([*large, n - sum(large)])
            twins = sorted(sizes[row][sizes[row] > 0].tolist())
            if twins != classes:
                found[i].append(_finding(stack[i], "twin_classes", classes, twins))
                continue
            expected = list(closed[i].quotient_poly)
            for prev, size in zip(large, large[1:]):
                if size == prev:
                    expected = times_linear(expected, 2 * (size - 1))
            actual = char_poly(quotients[row, :len(twins), :len(twins)].tolist())
            if actual != expected:
                found[i].append(_finding(stack[i], "quotient_char_poly", expected, actual))
        for own, before in zip(found, oracle):
            report.violations += before + own
        report.cases += len(stack)
    report.witnesses["partitions_checked"] = report.cases
    return report


def verify_lemma2(n: int) -> VerificationReport:
    """Entrywise identity ecc matrix == 2*A(complement) for every spec of n
    whose classes all have size >= 2.

    Both sides come from one adjacency stack: the eccentricity matrices by
    definition, and the doubled complements from the kernel behind
    ecc_via_complement, which confirms its preconditions for the whole stack.
    """
    report = _sweep_report("complement_identity", n, smallest=2)
    specs = _connected_partitions(n, smallest=2)
    for chunk, adjacency, matrices in _eccentricity_chunks(_labelled(specs)):
        devs = np.abs(_complement_stack(adjacency) - matrices).max(axis=(1, 2))
        for (spec, _), dev in zip(chunk, devs.astype(np.float64).tolist()):
            report.cases += 1
            _record(report, dev)
            if dev != 0.0:
                _violation(report, spec, "complement_identity", 0, dev)
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
    report = _sweep_report("radius_and_energy_bounds", n)
    ub_radius = radius_upper_bound(n)
    lb_energy, ub_energy = energy_bounds(n)
    star = MultipartiteSpec((n - 1, 1))
    cs2 = MultipartiteSpec(tuple([2] + [1] * (n - 2)))

    radii: list[tuple[float, MultipartiteSpec]] = []
    energies: list[tuple[float, MultipartiteSpec]] = []
    specs = _connected_partitions(n)
    for stack, _, eigs, _, oracle in _numeric_stacks(_labelled(specs)):
        for spec, radius, e, found in zip(stack, _radii(eigs), _energies(eigs), oracle):
            report.violations += found
            report.cases += 1
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
    if radii[1][0] > best_radius - UNIQUENESS_MARGIN:
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

    report.witnesses.update(
        {
            "radius_argmax": {"parts": list(radius_argmax.parts), "value": best_radius},
            "energy_argmax": {"parts": list(energy_argmax.parts), "value": max_energy},
            "energy_argmin": {
                "parts": list(energy_argmin.parts),
                "value": min_energy,
                "unique": energies[1][0] > min_energy + UNIQUENESS_MARGIN,
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


def _check_pair_order(report, n: int, product, partners, predicted: int, sweep=()):
    # one order-4n stream in three roles, by position: member 0 is the
    # product K_{n,n} (x) K_2, checked against the antipodal product spectrum
    # (a = n, diameter 2) and, even when that spectrum's size is wrong, the
    # predicted energy and the zero multiplicity; the next len(partners) are
    # the (spec, graph) partners, which share that energy but not the zero
    # eigenvalue; the rest are the sweep specs, whose energy is 4(order - p)
    label = [n, n, "x", 2]
    sources = itertools.chain([(label, product)], partners, _labelled(sweep))
    e_product, e_partners = None, []
    for labels, _, eigs, tols, oracle in _numeric_stacks(sources):
        zero_counts = np.count_nonzero(np.abs(eigs) < ZERO_EIG_TOL, axis=1).tolist()
        for spec, e, zeros, found in zip(labels, _energies(eigs), zero_counts, oracle):
            report.violations += found
            if e_product is None:
                closed = antipodal_product_spectrum(2 * n, n, 2, 2)
                report.violations += _check_spectrum(report, [label], [closed], eigs[:1], tols[:1])[0][0]
                e_product, zero_mult = e, zeros
                if zero_mult != 2 * n:
                    _violation(report, label, "zero_multiplicity", 2 * n, zero_mult)
                if abs(e_product - predicted) >= TOL_MATCH:
                    _violation(report, label, "product_energy", predicted, e_product)
            elif len(e_partners) < len(partners):
                report.cases += 1
                e_partners.append(e)
                _record(report, abs(e_product - e))
                if abs(e_product - e) >= TOL_MATCH:
                    _violation(report, spec, "pair_energy", e_product, e)
                if abs(e - predicted) >= TOL_MATCH:
                    _violation(report, spec, "predicted_energy", predicted, e)
                if zeros:
                    _violation(report, spec, "zero_absent", "no zero eigenvalue", "zero present")
            else:
                report.cases += 1
                expected = float(4 * (4 * n - spec.p))
                _record(report, abs(e - expected))
                if abs(e - expected) >= TOL_MATCH:
                    _violation(report, spec, "equal_order_equal_p_energy", expected, e)
    return e_product, zero_mult, e_partners


def verify_equienergetic_pair(n: int, i: int) -> VerificationReport:
    """Check the single pair equienergetic_pair(n, i) with the same product and
    partner checks as verify_equienergetic; witnesses carry both energies."""
    product, partner, predicted = equienergetic_pair(n, i)
    spec = MultipartiteSpec((n + i, n, n, n - i))
    report = VerificationReport("equienergetic_pair", n)
    e_product, zero_mult, (e_partner,) = _check_pair_order(
        report, n, product, [(spec, partner)], predicted)
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

    Per n: the strong product K_{n,n} (x) K_2 of equienergetic_pair must match
    the antipodal product spectrum in size, values and multiplicities (the
    zero eigenvalue of multiplicity 2n included) and reach energy 16(n-1),
    and every partner K_{n+i,n,n,n-i} must reach the same energy while
    missing the zero eigenvalue.  On top of the pairs, all specs of order 4n
    whose classes have size >= 2 are swept (sampled above GROUP_CHECK_CAP per
    order) to confirm that equal order and equal class count force equal
    energy.
    """
    if n_max < 2:
        raise PreconditionViolatedError(f"pair construction needs n >= 2, got {n_max}")
    check_order(4 * n_max)
    sweep_sizes = dict(enumerate(_check_sweep_size(4 * n_max, smallest=2), start=2))
    report = VerificationReport("product_equienergetic", n_max)
    sampled_orders = {}
    for n in range(2, n_max + 1):
        base = build_multipartite([n, n])
        a = antipodal_class(base)
        d = all_pairs_distances(base).diameter
        if a != n or d != 2:
            _violation(report, MultipartiteSpec((n, n)), "antipodal_structure", [n, 2], [a, d])
            continue
        product, partner, predicted = equienergetic_pair(n, 0)
        partner_specs = [MultipartiteSpec((n + i, n, n, n - i)) for i in range(n - 1)]
        partners = [(partner_specs[0], partner), *_labelled(partner_specs[1:])]
        # equal order + equal class count forces equal energy 4(order - p)
        available = sweep_sizes[4 * n]
        picked = set(_sample_indices(available, GROUP_CHECK_CAP))
        sampled_orders[str(4 * n)] = {"available": available, "checked": len(picked)}
        specs = _connected_partitions(4 * n, smallest=2)
        sweep = (spec for idx, spec in enumerate(specs) if idx in picked)
        _check_pair_order(report, n, product, partners, predicted, sweep)
    report.witnesses["equal_order_sweep"] = sampled_orders
    return report
