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
    1, -a, -s c, -s A_r c, ..., -s A_r^{r-1} c.  A zero column c leaves
    1, -a, 0, ..., 0: the step is one times_linear.  The row products skip
    zero entries, so an arrowhead (the sweeps' quotients: a diagonal
    bordered by its last row and column) costs O(r) per product.
    """
    coeffs = [1]
    for r, row in enumerate(rows):
        column = [rows[i][r] for i in range(r)]
        if not any(column):
            coeffs = times_linear(coeffs, row[r])
            continue
        # s and the rows of A_r as their nonzero (column, entry) pairs
        s = [(j, x) for j, x in enumerate(row[:r]) if x]
        a_r = [[(j, x) for j, x in enumerate(rows[i][:r]) if x] for i in range(r)]
        toeplitz = [1, -row[r]]
        for _ in range(r):
            toeplitz.append(-sum(x * column[j] for j, x in s))
            column = [sum(x * column[j] for j, x in entries) for entries in a_r]
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) for i in range(r + 2)]
    return coeffs
