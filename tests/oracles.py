"""Slow exact references kept for the tests.

``solve_rational`` is the rational Gauss-Jordan solve the package used
before its linear algebra went fraction-free; the integer routines are
checked against it.
"""

from fractions import Fraction


def solve_rational(m, target):
    """One exact solution x of m x = target, or None if inconsistent.

    Free variables are set to zero.  Entries of the result are Fractions.
    """
    rows = len(m)
    if rows == 0:
        return [] if all(t == 0 for t in target) else None
    cols = len(m[0])
    a = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(m, target)]
    pivots = []
    r = 0
    for j in range(cols):
        piv = next((i for i in range(r, rows) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][j]
        a[r] = [x / scale for x in a[r]]
        for i in range(rows):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, j in enumerate(pivots):
        x[j] = a[i][cols]
    return x
