"""Sharp families for the rho-versus-tau bounds, kept as test fixtures.

Both families weight the atoms of a side by c_j proportional to 2^-j and
alternate the sign of the dependence from atom to atom.  Their rho/tau
grows with log(1/tau) as the sharp bounds allow: like sqrt(1 - log tau)
for the two-atom ladder and like 1 - log tau for the general one.  On
random matrices rho/tau stays below about 1.5, so only families like
these tell a bound of the right growth from a weaker one.
"""

from __future__ import annotations

import numpy as np

from depmeasures import JointPMF, from_matrix


def _halving(k: int) -> np.ndarray:
    c = 2.0 ** -np.arange(k)
    return c / c.sum()


def two_atom_ladder(k: int, eps: float) -> JointPMF:
    """2 x k: column j has mass c_j and P(row 0 | column j) = 1/2 + eps 2^(j/2) (-1)^j.

    The conditional stays in [0, 1] while eps 2^((k-1)/2) <= 1/2, that is
    for k up to 2 log2(1/(2 eps)) + 1.
    """
    c = _halving(k)
    j = np.arange(k)
    up = 0.5 + eps * 2.0 ** (j / 2) * (-1.0) ** j
    return from_matrix(np.vstack([c * up, c * (1.0 - up)]), normalize=True)


def general_ladder(k: int) -> JointPMF:
    """k x k: p_ij proportional to c_i c_j (1 + 2^-k h_i h_j), with
    h_i = (-1)^i 2^(i/2) centred under c, so both marginals are c."""
    c = _halving(k)
    i = np.arange(k)
    h = (-1.0) ** i * 2.0 ** (i / 2)
    h -= c @ h
    return from_matrix(np.outer(c, c) * (1.0 + 2.0**-k * np.outer(h, h)), normalize=True)
