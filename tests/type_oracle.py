"""Type matrices of n-fold joins, kept as a test oracle.

The type of a side of n i.i.d. draws counts how many draws sit at each of
its atoms.  The row type is a sufficient statistic of the row draws, and
the column type of the column draws, so the type matrix, the joint law of
the two types, has the maximal correlation of the n-fold join
(Csaki-Fischer: rho of the join is rho of one copy).  Every event of the
join that sees a side only through its type, a threshold of summed scores
among them, is an event of the type matrix, so its tau bounds theirs.
"""

from __future__ import annotations

import numpy as np

from depmeasures.constructions import score_sum_law


def type_matrix(entries: np.ndarray, n: int) -> np.ndarray:
    """Joint law of the row type and the column type of n draws.

    Atoms 0, 1, 2, ... of a side get steps 0, 1, n + 1, (n + 1)^2, ...,
    so the digits of a step sum in base n + 1 count the draws at atoms 1,
    2, ...; :func:`score_sum_law` gives the law of the step sums, and the
    rows and columns of zero mass, which name no type, are dropped.
    """
    a, b = ([0] + [(n + 1) ** k for k in range(size - 1)] for size in entries.shape)
    law = score_sum_law(entries, np.array(a), np.array(b), n)
    return law[law.any(axis=1)][:, law.any(axis=0)]
