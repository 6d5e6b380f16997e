"""Proportional splits of atoms, for invariance tests at any size.

A column split into copies with the same conditional law of the row keeps
psi, lambda, tau and rho: each copy keeps its atom's ratio p_ij/(r_i c_j),
the threshold splits of the copies peak at an end of their segment, and the
merged atom is a sufficient statistic of the copies.
"""

from __future__ import annotations

import numpy as np


def split_cols(entries: np.ndarray, copies: int, rng: np.random.Generator) -> np.ndarray:
    """Each column split into ``copies`` adjacent columns in random
    (Dirichlet) proportions."""
    shares = rng.dirichlet(np.ones(copies), size=entries.shape[1])
    return (entries[:, :, None] * shares).reshape(entries.shape[0], -1)


def split_both(entries: np.ndarray, copies: int, rng: np.random.Generator) -> np.ndarray:
    """Columns, then rows, each split into ``copies``."""
    return split_cols(split_cols(entries, copies, rng).T, copies, rng).T
