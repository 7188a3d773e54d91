#!/usr/bin/env python3
"""Closed-form eccentricity spectra of complete multipartite graphs.

With every class of size >= 2 the spectrum is the doubled complement's;
otherwise the singletons form a dominating clique and the non-structural
eigenvalues are the roots of one small equitable quotient over the distinct
large class sizes and the clique.  With at most one distinct large size the
quotient has degree <= 2 and its roots are exact ints or quadratic surds;
with several distinct sizes irrational roots become floats.  Everything is
cross-checked against the library's eigensolver.
"""

import numpy as np

import eccspec as es


def compare(parts):
    spec = es.as_spec(parts)
    closed = es.multipartite_spectrum_closed(spec)
    numeric = es.symmetric_eigenvalues(
        es.eccentricity_matrix(es.build_multipartite(spec)).matrix
    )
    dev = float(np.max(np.abs(closed.eigenvalues() - numeric)))
    print(f"\n{spec}  [{closed.case_tag}]")
    print("  closed form :", ", ".join(f"{v} (x{m})" for v, m in closed.entries))
    print("  numeric     :", np.array2string(numeric, precision=6))
    print(f"  max deviation {dev:.2e},  energy {closed.energy():.6f}")


def main():
    print("=== all classes of size >= 2: doubled complement cliques ===")
    compare([2, 2])
    compare([4, 3, 2])

    print("\n=== all singletons: the complete graph, a degree-1 quotient ===")
    compare([1, 1, 1, 1, 1])

    print("\n=== one distinct large size: exact surds ===")
    compare([3, 1])
    compare([2, 1, 1])
    compare([2, 2, 1])

    print("\n=== several distinct large sizes: float quotient roots ===")
    compare([3, 2, 1, 1])

    print("\nExact trace checks (sum of value * multiplicity):")
    for parts in ([3, 1], [4, 2], [2, 1, 1]):
        closed = es.multipartite_spectrum_closed(parts)
        print(f"  {es.as_spec(parts)}: trace = {closed.trace()}")


if __name__ == "__main__":
    main()
