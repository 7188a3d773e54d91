#!/usr/bin/env python3
"""Scanning all partitions of a fixed order for extremal eccentricity energy.

For each connected spec of order n the script computes the numeric energy and
spectral radius, checks them against the closed bounds, and reports the
extremal graphs: the star maximises both quantities, the complete graph alone
minimises the energy.  The spec [2, 1, ..., 1] is printed explicitly because
its energy (n-1) + sqrt((n-1)^2 + 8) sits strictly above the minimum even
though a naive reading of the extremal statement would place it at the bottom.
"""

import eccspec as es


def main():
    n = 10
    lower, upper = es.energy_bounds(n)
    radius_cap = es.radius_upper_bound(n)
    print(f"order n = {n}: energy bounds [{lower:.4f}, {upper:.4f}], "
          f"radius cap {radius_cap:.4f}\n")

    rows = []
    for spec in es.enumerate_partitions(n):
        spectrum = es.matrix_spectrum(
            es.eccentricity_matrix(es.build_multipartite(spec)).matrix
        )
        rows.append((es.energy(spectrum), es.spectral_radius(spectrum), spec))

    rows.sort(key=lambda row: row[0])
    print(f"{'spec':>24}  {'energy':>10}  {'radius':>10}")
    for energy_value, radius, spec in rows:
        marker = ""
        if spec.parts == (n - 1, 1):
            marker = "  <- star: attains both maxima"
        elif spec.parts == tuple([1] * n):
            marker = "  <- complete graph: unique energy minimum"
        elif spec.parts == tuple([2] + [1] * (n - 2)):
            marker = "  <- one large class: NOT minimal"
        print(f"{str(spec):>24}  {energy_value:10.4f}  {radius:10.4f}{marker}")

    report = es.verify_bounds_and_extremals(n)
    print("\nharness verdict:", "pass" if report.passed else "FAIL")
    print("energy argmin :", report.witnesses["energy_argmin"])
    print("energy argmax :", report.witnesses["energy_argmax"])
    print("radius argmax :", report.witnesses["radius_argmax"])
    print("one large class:", report.witnesses["one_large_class_spec"])


if __name__ == "__main__":
    main()
