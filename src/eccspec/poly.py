"""Exact arithmetic on integer polynomials, stdlib only.

A polynomial is a list of Python ints, leading coefficient first.
"""

from operator import mul


def times_linear(p: list[int], d: int) -> list[int]:
    """p(x) * (x - d)."""
    return [a - d * b for a, b in zip(p + [0], [0] + p)]


def horner(p: list[int], x: int) -> int:
    """p(x), evaluated exactly."""
    value = 0
    for coeff in p:
        value = value * x + coeff
    return value


def char_poly(rows: list[list[int]]) -> list[int]:
    """det(xI - A) of an integer matrix given as a list of rows.

    Berkowitz's division-free recurrence: with A_r the leading r x r block
    and A_{r+1} = [[A_r, c], [s, a]], the polynomial of A_{r+1} is that of
    A_r times the lower-triangular Toeplitz matrix whose first column is
    1, -a, -s c, -s A_r c, ..., -s A_r^{r-1} c.
    """
    coeffs = [1]
    for r, row in enumerate(rows):
        column = [rows[i][r] for i in range(r)]
        toeplitz = [1, -row[r]]
        for _ in range(r):
            toeplitz.append(-sum(map(mul, row, column)))
            column = [sum(map(mul, rows[i], column)) for i in range(r)]
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) for i in range(r + 2)]
    return coeffs
