#!/usr/bin/env python3
"""Closed-form eccentricity spectra of complete multipartite graphs.

Three regimes cover every K_{n1,...,np}: all classes large, all singletons,
and the mixed case where the singletons form a dominating clique.  The mixed
case with one large class keeps its two non-structural eigenvalues as exact
quadratic surds; with several large classes they come from a small equitable
quotient.  Everything is cross-checked against the library's eigensolver.
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

    print("\n=== all singletons: the complete graph ===")
    compare([1, 1, 1, 1, 1])

    print("\n=== one large class: exact surd roots of an integer quadratic ===")
    compare([3, 1])
    compare([2, 1, 1])

    print("\n=== several large classes plus singletons: quotient eigenvalues ===")
    compare([2, 2, 1])
    compare([3, 2, 1, 1])

    print("\nExact trace checks (sum of value * multiplicity):")
    for parts in ([3, 1], [4, 2], [2, 1, 1]):
        closed = es.multipartite_spectrum_closed(parts)
        print(f"  {es.as_spec(parts)}: trace = {closed.trace()}")


if __name__ == "__main__":
    main()
