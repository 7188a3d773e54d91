"""Exact eccentricity spectra and energy/radius bounds for complete
multipartite graphs, plus the antipodal strong-product spectrum and the
equienergetic pair construction built from it.

The spectrum of K_{n1,...,np} comes from one of two routes:

* every class of size >= 2: twice the adjacency spectrum of the complement
  (a disjoint union of cliques), i.e. 2(ni - 1) per class and -2 with
  multiplicity n - p;
* at least one singleton class: the singletons form a dominating clique.
  Structural eigenvalues -2 and -1 come from differences inside the large
  classes and inside the clique, and repeated large class sizes deflate
  exactly to 2(m - 1); the remaining eigenvalues are the simple roots of the
  equitable quotient over (distinct large sizes..., clique), whose monic
  integer polynomial is quotient_poly.  Degree 2 (one distinct large size)
  gives exact quadratic surds; otherwise the roots are the eigenvalues of
  the symmetric arrowhead similar to the quotient, with integer roots kept
  exact (the complete graph's n - 1 among them) and the rest as floats.

A list of specs is one stack (`_closed_stack`): the arrowheads of equal
order in it are solved by one batched eigvalsh call, which gives each the
bits it gets alone.  multipartite_spectrum_closed is a stack of one, and the
verification sweep passes each of its stacks whole.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedSpecError,
    NotDivisibleError,
    OrderTooLargeError,
    PreconditionViolatedError,
)
from .exact import quadratic_roots, simplify_value
from .graphs import Graph, as_spec, build_multipartite, complete, strong_product
from .poly import horner, times_linear

# case tags name the route: every spec with a singleton, the complete graph
# included, takes the arrowhead quotient of SPLIT_MIXED
CASE_ALL_PARTS_GE_2 = "ALL_PARTS_GE_2"
CASE_SPLIT_MIXED = "SPLIT_MIXED"
CASE_PRODUCT_THM5 = "PRODUCT_THM5"

# largest order multipartite_spectrum_closed accepts: the exact surd
# arithmetic trial-divides radicands that grow like n^2, and the quotient
# polynomial of k distinct class sizes costs O(k^2) big-integer steps
MAX_CLOSED_ORDER = 2**20


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Eigenvalues with multiplicities, sorted descending, plus the route.

    Values are exact (int or Surd) wherever the construction allows; floats
    appear only for irrational roots of a quotient polynomial of degree >= 3,
    i.e. specs with singletons and at least two distinct large class sizes.
    quotient_poly is that quotient's polynomial, leading coefficient first,
    on the route for specs with a singleton, and None on the others.
    """

    entries: tuple[tuple[object, int], ...]
    case_tag: str
    quotient_poly: tuple[int, ...] | None = None

    def eigenvalues(self) -> np.ndarray:
        """Expanded float eigenvalues, descending (entries are kept sorted)."""
        values = np.array([float(v) for v, _ in self.entries])
        return np.repeat(values, [m for _, m in self.entries])

    def trace(self):
        """Sum of value*multiplicity, exact.  Float entries are simple roots
        of quotient_poly, so they sum to -quotient_poly[1] (Vieta) less its
        other roots: the int entries at which it vanishes."""
        exact = [(v, m) for v, m in self.entries if not isinstance(v, float)]
        total = sum(v * m for v, m in exact)
        if len(exact) < len(self.entries):
            poly = self.quotient_poly
            total -= poly[1] + sum(v for v, _ in exact if type(v) is int and horner(poly, v) == 0)
        return simplify_value(total)

    def energy_exact(self):
        """Sum of |value|*multiplicity, exact: the trace less twice the
        negative part, or None when a negative entry is a float.  The
        quotient roots interlace 2(m - 1) >= 2: only the least can be < 0."""
        negative = [(v, m) for v, m in self.entries if v < 0]
        if any(isinstance(v, float) for v, _ in negative):
            return None
        return simplify_value(self.trace() - 2 * sum(v * m for v, m in negative))

    def energy(self) -> float:
        """energy_exact(), or else the trace less twice math.fsum of the negatives."""
        exact = self.energy_exact()
        if exact is not None:
            return float(exact)
        return float(self.trace()) - 2 * math.fsum(float(v) * m for v, m in self.entries if v < 0)


def _sorted_entries(pairs) -> tuple[tuple[object, int], ...]:
    merged: dict = {}
    order: list = []
    for value, mult in pairs:
        if mult <= 0:
            continue
        value = simplify_value(value)
        key = value if not isinstance(value, float) else ("f", value)
        if key in merged:
            merged[key][1] += mult
        else:
            item = [value, mult]
            merged[key] = item
            order.append(item)
    order.sort(key=lambda item: float(item[0]), reverse=True)
    return tuple((v, m) for v, m in order)


def _arrow_char_poly(distinct_sizes: list[tuple[int, int]], singles: int) -> list[int]:
    # det(xI - Q) for the quotient over distinct large-class sizes plus the
    # clique of singletons: Q = diag(2(m-1)) bordered by a column of
    # `singles`, a row of class totals m*count, and corner singles-1.
    # Expanded along the border one size at a time, with rest the product of
    # the diagonal factors so far: a size m with count c takes poly to
    # (x - 2(m-1))*poly - singles*m*c*rest and rest to (x - 2(m-1))*rest.
    poly, rest = [1, -(singles - 1)], [1]
    for m, count in distinct_sizes:
        poly = times_linear(poly, 2 * (m - 1))
        poly[2:] = [a - singles * m * count * r for a, r in zip(poly[2:], rest)]
        rest = times_linear(rest, 2 * (m - 1))
    return poly


def _quotient_roots(quotients: list[tuple[list[tuple[int, int]], int, list[int]]]) -> list[list]:
    # The simple roots of each (distinct sizes, singles, poly) quotient.
    # Degree 2 (one distinct large size) keeps exact surds.  Otherwise the
    # roots are the eigenvalues of the symmetric arrowhead similar to the
    # quotient: diagonal 2(m-1) per distinct size and singles-1 in the
    # corner, border sqrt(singles*m*count); the arrowheads of one order are
    # solved by one batched eigvalsh call, which solves each as it would
    # alone.  The roots are simple and strictly interlace the distinct even
    # diagonal values, so no other root lies within 1/2 of an integer root:
    # rounding an eigenvalue within 1/4 of an integer and confirming it as
    # an exact zero of the integer polynomial (horner) recovers every
    # integer root as an int, the complete graph's singles-1 included.
    roots: list = [None] * len(quotients)
    arrows: dict[int, list] = {}  # (index, arrowhead) by order
    for i, (sizes, singles, poly) in enumerate(quotients):
        if len(poly) == 3:
            roots[i] = list(quadratic_roots(-poly[1], poly[2]))
            continue
        arrow = np.diag([2.0 * (m - 1) for m, _ in sizes] + [singles - 1.0])
        arrow[-1, :-1] = arrow[:-1, -1] = np.sqrt([float(singles * m * count) for m, count in sizes])
        arrows.setdefault(len(arrow), []).append((i, arrow))
    for group in arrows.values():
        members, stack = zip(*group)
        for i, eigs in zip(members, np.linalg.eigvalsh(np.stack(stack)).tolist()):
            poly = quotients[i][2]
            roots[i] = [r if abs(root - r) < 0.25 and horner(poly, r) == 0 else root
                        for root, r in zip(eigs, map(round, eigs))]
    return roots


def _closed_stack(specs) -> list[ClosedFormSpectrum]:
    """The exact eccentricity spectra of a list of complete multipartite
    graphs, in order; multipartite_spectrum_closed is a stack of one.

    Every spec is validated before any arithmetic, as
    multipartite_spectrum_closed documents.  The quotient roots of the whole
    stack come from one _quotient_roots call, so the arrowheads of equal
    order share one eigvalsh call.
    """
    specs = [as_spec(parts) for parts in specs]
    for spec in specs:
        if spec.p == 1 and spec.n > 1:
            raise DisconnectedSpecError(
                f"{spec} has a single class and therefore no edges"
            )
        if spec.n > MAX_CLOSED_ORDER:
            raise OrderTooLargeError(
                f"order {spec.n} exceeds the closed form's maximum of {MAX_CLOSED_ORDER} vertices"
            )
    closed: list = []
    mixed = []  # (index, structural pairs, quotient) per spec with a singleton
    for spec in specs:
        large = [x for x in spec.parts if x >= 2]
        singles = spec.p - len(large)
        if singles == 0:
            pairs = [(2 * (size - 1), count) for size, count in Counter(large).items()]
            pairs.append((-2, spec.n - spec.p))
            closed.append(ClosedFormSpectrum(_sorted_entries(pairs), CASE_ALL_PARTS_GE_2))
            continue
        counts = sorted(Counter(large).items(), reverse=True)
        pairs = [(-2, sum(large) - len(large)), (-1, singles - 1)]
        pairs.extend((2 * (size - 1), count - 1) for size, count in counts)
        mixed.append((len(closed), pairs, (counts, singles, _arrow_char_poly(counts, singles))))
        closed.append(None)
    quotients = [quotient for _, _, quotient in mixed]
    for (i, pairs, (_, _, poly)), roots in zip(mixed, _quotient_roots(quotients)):
        pairs.extend((root, 1) for root in roots)
        closed[i] = ClosedFormSpectrum(_sorted_entries(pairs), CASE_SPLIT_MIXED, tuple(poly))
    return closed


def multipartite_spectrum_closed(parts) -> ClosedFormSpectrum:
    """Exact eccentricity spectrum of the complete multipartite graph.

    A single class of two or more vertices is rejected: it describes an
    edgeless graph with no finite eccentricities.  K_1, one singleton, takes
    the singleton route and has the spectrum {0}.  Orders above
    MAX_CLOSED_ORDER are rejected before any arithmetic.
    """
    return _closed_stack([parts])[0]


def radius_upper_bound(n: int, allow_small: bool = False) -> float:
    """Largest possible eccentricity spectral radius over the multipartite
    family on n vertices: (n-2) + sqrt(n^2 - 3n + 3), attained by the star.

    An n whose n^2 - 3n + 3 overflows a float is rejected.
    """
    if n < 2 or (n < 4 and not allow_small):
        raise PreconditionViolatedError(f"bound needs n >= {2 if allow_small else 4}, got {n}")
    try:
        return (n - 2) + math.sqrt(n * n - 3 * n + 3)
    except OverflowError as exc:
        raise PreconditionViolatedError(
            f"bound overflows a float for an n of {n.bit_length()} bits"
        ) from exc


def energy_bounds(n: int, allow_small: bool = False) -> tuple[float, float]:
    """(lower, upper) bounds for the eccentricity energy on n vertices.

    The lower bound 2n-2 is the complete graph's energy; the upper bound is
    the star's, twice its one positive eigenvalue, radius_upper_bound(n).
    """
    upper = 2 * radius_upper_bound(n, allow_small)
    return float(2 * n - 2), upper


def antipodal_product_spectrum(m: int, a: int, d: int, n_h: int) -> ClosedFormSpectrum:
    """Eccentricity spectrum of G (x) H for an a-antipodal G of order m and
    diameter d, strong-multiplied by any connected H of order n_h with
    diameter below d: d*n_h*(a-1), 0 and -d*n_h with multiplicities m/a,
    m(n_h - 1) and (m/a)(a-1)."""
    if m < 1 or a < 1 or n_h < 1:
        raise PreconditionViolatedError("m, a and n_h must be positive")
    if m % a != 0:
        raise NotDivisibleError(f"fibre size {a} does not divide order {m}")
    if d < 2:
        raise PreconditionViolatedError(f"diameter must be at least 2, got {d}")
    entries = _sorted_entries(
        [
            (d * n_h * (a - 1), m // a),
            (0, m * (n_h - 1)),
            (-d * n_h, (m // a) * (a - 1)),
        ]
    )
    return ClosedFormSpectrum(entries, CASE_PRODUCT_THM5)


def equienergetic_pair(n: int, i: int) -> tuple[Graph, Graph, int]:
    """A pair of non-cospectral graphs sharing eccentricity energy 16(n-1).

    The first graph is the strong product of the balanced bipartite graph
    K_{n,n} with an edge; the second is K_{n+i,n,n,n-i}.  i = 0 gives the
    balanced four-class partner, i up to n-2 keeps every class size >= 2.
    """
    if n < 2:
        raise PreconditionViolatedError(f"construction needs n >= 2, got {n}")
    if not 0 <= i <= n - 2:
        raise PreconditionViolatedError(f"offset must satisfy 0 <= i <= n-2, got {i}")
    product = strong_product(build_multipartite([n, n]), complete(2))
    partner = build_multipartite([n + i, n, n, n - i])
    return product, partner, 16 * (n - 1)
