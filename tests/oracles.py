"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, fsum, direct formulas) and shares no code with the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def subset_masses(entries: np.ndarray, rows, cols):
    """(P(A), P(A^c), P(B), P(B^c), P(A and B)) by direct summation."""
    n_rows, n_cols = entries.shape
    rows = set(rows)
    cols = set(cols)
    pa = math.fsum(entries[i, j] for i in rows for j in range(n_cols))
    pac = math.fsum(entries[i, j] for i in range(n_rows) if i not in rows for j in range(n_cols))
    pb = math.fsum(entries[i, j] for i in range(n_rows) for j in cols)
    pbc = math.fsum(entries[i, j] for i in range(n_rows) for j in range(n_cols) if j not in cols)
    pab = math.fsum(entries[i, j] for i in rows for j in cols)
    return pa, pac, pb, pbc, pab


def naive_event_statistic(entries: np.ndarray, rows, cols, kind: str) -> float:
    """Direct |P(AB) - P(A)P(B)| over the kind's denominator, 0/0 -> 0."""
    pa, pac, pb, pbc, pab = subset_masses(entries, rows, cols)
    num = abs(pab - pa * pb)
    if kind == "psi":
        if pa <= 0.0 or pb <= 0.0:
            return 0.0
        return num / (pa * pb)
    if kind == "lambda":
        if pa <= 0.0 or pb <= 0.0:
            return 0.0
        return num / math.sqrt(pa * pb)
    if pa <= 0.0 or pac <= 0.0 or pb <= 0.0 or pbc <= 0.0:
        return 0.0
    return num / (math.sqrt(pa * pac) * math.sqrt(pb * pbc))


def naive_event_measure(entries: np.ndarray, kind: str) -> float:
    """Supremum over every one of the 2^I * 2^J event pairs."""
    n_rows, n_cols = entries.shape
    best = 0.0
    for r_bits in range(1 << n_rows):
        rows = [i for i in range(n_rows) if (r_bits >> i) & 1]
        for c_bits in range(1 << n_cols):
            cols = [j for j in range(n_cols) if (c_bits >> j) & 1]
            best = max(best, naive_event_statistic(entries, rows, cols, kind))
    return best


def correlation_of_scores(entries: np.ndarray, f, g) -> float:
    """Corr(f(row), g(col)) summed in column-major order."""
    n_rows, n_cols = entries.shape
    col = [math.fsum(entries[i, j] for i in range(n_rows)) for j in range(n_cols)]
    row = [math.fsum(entries[i, j] for j in range(n_cols)) for i in range(n_rows)]
    ef = math.fsum(row[i] * f[i] for i in range(n_rows))
    eg = math.fsum(col[j] * g[j] for j in range(n_cols))
    vf = math.fsum(row[i] * (f[i] - ef) ** 2 for i in range(n_rows))
    vg = math.fsum(col[j] * (g[j] - eg) ** 2 for j in range(n_cols))
    if vf <= 0.0 or vg <= 0.0:
        return 0.0
    cov = math.fsum(
        entries[i, j] * (f[i] - ef) * (g[j] - eg)
        for j in range(n_cols)
        for i in range(n_rows)
    )
    # staged: vf * vg underflows when both variances sit near 1e-300
    return cov / math.sqrt(vf) / math.sqrt(vg)


def rational_measure_squared(cells, n_rows: int, n_cols: int, kind: str):
    """Exact supremum of the squared statistic in rational arithmetic.

    ``cells`` is a flat list of Fractions summing to exactly 1.  Squares
    avoid square roots: sup(stat) = sqrt(sup(stat^2)) since stat >= 0.
    """
    from fractions import Fraction

    grid = [[cells[i * n_cols + j] for j in range(n_cols)] for i in range(n_rows)]
    best = Fraction(0)
    for r_bits in range(1 << n_rows):
        rows = [i for i in range(n_rows) if (r_bits >> i) & 1]
        pa = sum((grid[i][j] for i in rows for j in range(n_cols)), Fraction(0))
        pac = 1 - pa
        for c_bits in range(1 << n_cols):
            cols = [j for j in range(n_cols) if (c_bits >> j) & 1]
            pb = sum((grid[i][j] for i in range(n_rows) for j in cols), Fraction(0))
            pbc = 1 - pb
            pab = sum((grid[i][j] for i in rows for j in cols), Fraction(0))
            nu = pab - pa * pb
            if kind == "psi":
                den = pa * pa * pb * pb
            elif kind == "lambda":
                den = pa * pb
            else:
                den = pa * pac * pb * pbc
            if den <= 0:
                continue
            best = max(best, nu * nu / den)
    return best


def sum_indicator_corr_bruteforce(entries: np.ndarray, g, h, n: int) -> float:
    """Corr(1[sum g > 0], 1[sum h > 0]) by enumerating all atom sequences."""
    n_rows, n_cols = entries.shape
    cells = [
        (g[i], h[j], entries[i, j])
        for i in range(n_rows)
        for j in range(n_cols)
        if entries[i, j] > 0
    ]
    qa = qb = q11 = 0.0
    for seq in itertools.product(cells, repeat=n):
        sg = math.fsum(c[0] for c in seq)
        sh = math.fsum(c[1] for c in seq)
        p = math.prod(c[2] for c in seq)
        if sg > 0:
            qa += p
        if sh > 0:
            qb += p
        if sg > 0 and sh > 0:
            q11 += p
    den = math.sqrt(qa * (1 - qa) * qb * (1 - qb))
    if den <= 0:
        return 0.0
    return (q11 - qa * qb) / den


def sum_indicator_corr_rational(entries: np.ndarray, g, h, n: int) -> float:
    """Corr(1[sum g > 0], 1[sum h > 0]) with every score sum taken exactly.

    ``g`` and ``h`` are exact scores (ints or Fractions) with the signs of
    sums of the normalized float scores, e.g. the centered raw scores.
    Every count vector of n draws over the positive cells is summed with
    ``Fraction``, so a sum that is 0 in exact arithmetic counts as not
    positive; its probability is the multinomial coefficient times the
    product of the float masses.
    """
    n_rows, n_cols = entries.shape
    cells = [
        (Fraction(g[i]), Fraction(h[j]), float(entries[i, j]))
        for i in range(n_rows)
        for j in range(n_cols)
        if entries[i, j] > 0
    ]
    qa, qb, q11 = [], [], []
    for draw in itertools.combinations_with_replacement(range(len(cells)), n):
        counts = [draw.count(c) for c in range(len(cells))]
        ways = math.factorial(n)
        for k in counts:
            ways //= math.factorial(k)
        p = ways * math.prod(cell[2] ** k for cell, k in zip(cells, counts))
        sg = sum(k * cell[0] for cell, k in zip(cells, counts))
        sh = sum(k * cell[1] for cell, k in zip(cells, counts))
        if sg > 0:
            qa.append(p)
        if sh > 0:
            qb.append(p)
        if sg > 0 and sh > 0:
            q11.append(p)
    qa, qb, q11 = math.fsum(qa), math.fsum(qb), math.fsum(q11)
    den = math.sqrt(qa * (1 - qa) * qb * (1 - qb))
    if den <= 0:
        return 0.0
    return (q11 - qa * qb) / den
