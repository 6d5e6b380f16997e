"""Joint probability-mass matrices for pairs of finite sigma-fields.

A pair of finite sigma-fields on a common probability space is fully
described by the joint mass matrix of their atoms: ``entries[i, j]`` is the
probability of (row atom i) AND (column atom j).  Events of the row field
are unions of row atoms, i.e. subsets of row indices; likewise for columns.
Every dependence quantity downstream is a function of this matrix alone.

Zero-mass atoms are retained as stored rows/columns; computations treat
events of probability 0 or 1 as contributing nothing (the 0/0 = 0
convention).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    NegativeEntry,
    NonRectangular,
    NotNormalized,
    OutOfRange,
    SizeOverflow,
    ZeroTotal,
)

NORMALIZATION_TOL = 1e-9
NEGATIVE_CLAMP = -1e-12
STATE_CAP = 10**7

RANDOM_STYLES = ("dense", "sparse", "near_independent")


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Immutable joint mass matrix with optional atom labels.

    Construct through :func:`from_matrix` (or the generators below), which
    validate nonnegativity and total mass.  The entries array is read-only;
    all operations are pure functions returning new objects.
    """

    entries: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape  # type: ignore[return-value]

    def to_jsonable(self) -> dict:
        out: dict = {"matrix": [[float(x) for x in row] for row in self.entries]}
        if self.row_labels is not None:
            out["row_labels"] = list(self.row_labels)
        if self.col_labels is not None:
            out["col_labels"] = list(self.col_labels)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JointPMF(shape={self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class EventPair:
    """An event of the row field and an event of the column field.

    ``row_set`` collects 0-based row-atom indices whose union is the row
    event A; ``col_set`` likewise for the column event B.  Empty sets denote
    the impossible event.
    """

    row_set: frozenset[int] = field(default_factory=frozenset)
    col_set: frozenset[int] = field(default_factory=frozenset)

    def to_jsonable(self) -> dict:
        return {"row_set": sorted(self.row_set), "col_set": sorted(self.col_set)}

    @staticmethod
    def of(rows: Iterable[int], cols: Iterable[int]) -> "EventPair":
        return EventPair(frozenset(int(i) for i in rows), frozenset(int(j) for j in cols))


@dataclass(frozen=True)
class Marginals:
    """Row and column atom masses of a joint matrix."""

    row: np.ndarray
    col: np.ndarray

    def to_jsonable(self) -> dict:
        return {"row": [float(x) for x in self.row], "col": [float(x) for x in self.col]}


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _as_label_tuple(labels: Sequence[str] | None, n: int, side: str) -> tuple[str, ...] | None:
    if labels is None:
        return None
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError as exc:
        raise NonRectangular(f"{side} labels must be a list") from exc
    if len(labels) != n:
        raise NonRectangular(f"{side} labels: expected {n}, got {len(labels)}")
    return labels


def holds_bool_or_text(values: Iterable | np.ndarray) -> bool:
    """True when ``values``, an array or a flat iterable of entries, holds a
    boolean or a string.

    A float64 cast turns both into numbers ("0.5" -> 0.5, true -> 1.0), so
    callers check for them after the cast succeeds.  A numeric array costs
    one dtype test, a list one pass over the types of its entries.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind not in "iuf"
        values = values.flat
    return any(issubclass(t, (bool, np.bool_, str, bytes)) for t in set(map(type, values)))


def _validated(arr: np.ndarray, normalize: bool = False) -> np.ndarray:
    """The checks of :func:`from_matrix` on a 2-d float64 array.

    Returns a new array with tiny negatives clamped to 0 and, with
    ``normalize``, divided by its total; raises as :func:`from_matrix`.
    """
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise NonRectangular(f"matrix must be at least 1x1, got {arr.shape}")
    # One reduction screens the common input: the minimum is NaN or
    # negative whenever an entry is NaN, -inf or negative.
    if not float(arr.min()) >= 0.0:
        if not np.isfinite(arr).all():
            raise NegativeEntry("entries must be finite")
        if (arr < NEGATIVE_CLAMP).any():
            worst = float(arr.min())
            raise NegativeEntry(f"entry {worst} below tolerance {NEGATIVE_CLAMP}")
    arr = np.maximum(arr, 0.0)

    total = float(arr.sum())
    if not math.isfinite(total) and not np.isfinite(arr).all():
        raise NegativeEntry("entries must be finite")  # a +inf entry
    if normalize:
        if total <= 0.0:
            raise ZeroTotal("cannot normalize: total mass is 0")
        arr /= total  # in place: arr is the copy np.maximum made
    elif abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"entries sum to {total!r}, not 1 within {NORMALIZATION_TOL}")
    return arr


def from_matrix(
    rows: Sequence[Sequence[float]] | np.ndarray,
    normalize: bool = False,
    row_labels: Sequence[str] | None = None,
    col_labels: Sequence[str] | None = None,
) -> JointPMF:
    """Validate a matrix of nonnegative reals as a joint pmf.

    Tiny negatives above ``-1e-12`` are clamped to 0.  With ``normalize``
    the entries are divided by their total (which must be positive);
    without it the total must already be 1 within 1e-9.  Entries are stored
    exactly as given (or exactly as scaled) -- there is no silent fixing.
    Anything but a 2-d array or equal-length rows raises NonRectangular;
    entries that are not real numbers, booleans and strings included,
    raise NegativeEntry.
    """
    try:
        arr = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        cells = np.array(rows, dtype=object)
        if cells.ndim == 2 and not any(np.ndim(x) for x in cells.flat):
            raise NegativeEntry(f"matrix entries must be real numbers: {exc}") from exc
        raise NonRectangular("matrix must be equal-length rows of numbers") from exc
    if arr.ndim != 2:
        raise NonRectangular(f"expected a 2-d matrix, got shape {arr.shape}")
    entries = rows if isinstance(rows, np.ndarray) else itertools.chain.from_iterable(rows)
    if holds_bool_or_text(entries):
        raise NegativeEntry("matrix entries must be real numbers, not booleans or strings")

    arr = _validated(arr, normalize)
    return JointPMF(
        entries=_freeze(arr),
        row_labels=_as_label_tuple(row_labels, arr.shape[0], "row"),
        col_labels=_as_label_tuple(col_labels, arr.shape[1], "col"),
    )


def marginals(M: JointPMF) -> Marginals:
    """Row sums and column sums (atom masses of each field)."""
    r = _freeze(M.entries.sum(axis=1))
    c = _freeze(M.entries.sum(axis=0))
    return Marginals(row=r, col=c)


def _check_index(i: int, n: int, side: str) -> int:
    """The index rule: an atom index is an integer (Python or numpy, booleans
    excluded) in [0, n), else IndexOutOfRange."""
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
        raise IndexOutOfRange(f"{side} index {i!r} is not an integer")
    if not 0 <= i < n:
        raise IndexOutOfRange(f"{side} index {i} outside [0, {n})")
    return i


def event_masks(M: JointPMF, e: EventPair) -> tuple[np.ndarray, np.ndarray]:
    """Boolean row and column masks of an event pair's index sets.

    The one place an event pair meets the matrix shape: each index follows
    the index rule of :func:`_check_index`.
    """
    return (
        _index_mask(e.row_set, M.n_rows, "row"),
        _index_mask(e.col_set, M.n_cols, "col"),
    )


def _index_mask(indices: Iterable, n: int, side: str) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for i in indices:
        mask[_check_index(i, n, side)] = True
    return mask


def event_prob(M: JointPMF, e: EventPair) -> tuple[float, float, float]:
    """Masses (P(A), P(B), P(A and B)) of an event pair.

    P(A and B) is the sum of entries over the row_set x col_set rectangle.
    """
    rmask, cmask = event_masks(M, e)
    sub = M.entries[rmask]
    return float(sub.sum()), float(M.entries[:, cmask].sum()), float(sub[:, cmask].sum())


def kron(M1: JointPMF, M2: JointPMF) -> JointPMF:
    """Joint matrix of the independent join of two pairs.

    When the two pairs live on independent components of a product space,
    the joined pair (row fields joined, column fields joined) has the
    entrywise tensor matrix: entry ((i1,i2),(j1,j2)) = p1[i1,j1]*p2[i2,j2],
    with both product indices ordered lexicographically.  That ordering is
    part of the public contract so witnesses on the product decode into
    per-factor events.  Factors within the normalization tolerance can
    multiply to a total outside it; only then is the product rescaled to
    total 1, so the join loads wherever its factors do.
    """
    arr = _kron_entries(M1.entries, M2.entries)
    row_labels = col_labels = None
    if M1.row_labels is not None and M2.row_labels is not None:
        row_labels = tuple(f"({a},{b})" for a in M1.row_labels for b in M2.row_labels)
    if M1.col_labels is not None and M2.col_labels is not None:
        col_labels = tuple(f"({a},{b})" for a in M1.col_labels for b in M2.col_labels)
    return from_matrix(arr, row_labels=row_labels, col_labels=col_labels)


def _kron_entries(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entries of the join of two pmf arrays, rescaled as :func:`kron` says."""
    n_entries = a.size * b.size
    if n_entries > STATE_CAP:
        raise SizeOverflow(f"product would have {n_entries} entries > cap {STATE_CAP}")
    arr = np.kron(a, b)
    total = float(arr.sum())
    return arr / total if abs(total - 1.0) > NORMALIZATION_TOL else arr


def kron_all(Ms: Sequence[JointPMF]) -> JointPMF:
    """Left-to-right iterated independent join."""
    if not Ms:
        raise NonRectangular("need at least one factor")
    out = Ms[0]
    for M in Ms[1:]:
        out = kron(out, M)
    return out


def _check_seed(seed: int) -> int:
    """The seed rule: a seed is a non-negative integer, as numpy's generators
    require; a negative one raises OutOfRange."""
    seed = int(seed)
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    return seed


def random_joint(
    n_rows: int,
    n_cols: int,
    seed: int,
    style: str = "dense",
    noise: float = 0.01,
) -> JointPMF:
    """Deterministic random instance generator for fuzzing.

    Styles: ``dense`` draws i.i.d. uniform entries and normalizes;
    ``sparse`` zeroes roughly half the entries first; ``near_independent``
    perturbs an outer product of random marginals by +/-``noise`` per entry
    (noise 0 gives an exactly independent instance).
    """
    if n_rows < 1 or n_cols < 1:
        raise IndexOutOfRange(f"shape must be at least 1x1, got {n_rows}x{n_cols}")
    if style not in RANDOM_STYLES:
        raise OutOfRange(f"unknown style {style!r}; choose from {RANDOM_STYLES}")
    rng = np.random.default_rng(_check_seed(seed))
    if style == "dense":
        arr = rng.random((n_rows, n_cols))
    elif style == "sparse":
        arr = rng.random((n_rows, n_cols))
        arr[rng.random((n_rows, n_cols)) < 0.5] = 0.0
        if arr.sum() <= 0.0:
            arr[rng.integers(n_rows), rng.integers(n_cols)] = 1.0
    else:  # near_independent
        r = rng.random(n_rows) + 0.1
        c = rng.random(n_cols) + 0.1
        arr = np.outer(r / r.sum(), c / c.sum())
        if noise:
            arr = arr + noise * rng.uniform(-1.0, 1.0, size=arr.shape)
            arr = np.maximum(arr, 0.0)
        if arr.sum() <= 0.0:
            arr[rng.integers(n_rows), rng.integers(n_cols)] = 1.0
    return from_matrix(arr, normalize=True)


def merge_rows(M: JointPMF, i1: int, i2: int) -> JointPMF:
    """Replace rows i1 and i2 by their entrywise sum (at min(i1, i2)).

    Realizes passing to the sub-field that cannot distinguish the two
    atoms; no dependence measure can increase under this operation.
    """
    i1 = _check_index(i1, M.n_rows, "row")
    i2 = _check_index(i2, M.n_rows, "row")
    if i1 == i2:
        raise IndexOutOfRange(f"cannot merge row {i1} with itself")
    lo, hi = min(i1, i2), max(i1, i2)
    arr = np.delete(M.entries, hi, axis=0).copy()
    arr[lo] = M.entries[lo] + M.entries[hi]
    labels = None
    if M.row_labels is not None:
        merged = list(M.row_labels)
        merged[lo] = f"{M.row_labels[lo]}+{M.row_labels[hi]}"
        del merged[hi]
        labels = tuple(merged)
    return from_matrix(arr, row_labels=labels, col_labels=M.col_labels)


def merge_cols(M: JointPMF, j1: int, j2: int) -> JointPMF:
    """Column counterpart of :func:`merge_rows`."""
    transposed = JointPMF(
        entries=_freeze(M.entries.T), row_labels=M.col_labels, col_labels=M.row_labels
    )
    merged = merge_rows(transposed, j1, j2)
    return JointPMF(
        entries=_freeze(merged.entries.T),
        row_labels=merged.col_labels,
        col_labels=merged.row_labels,
    )


def permute(M: JointPMF, row_order: Sequence[int] | None = None, col_order: Sequence[int] | None = None) -> JointPMF:
    """Reindex atoms; all dependence measures are invariant under this."""
    arr = M.entries
    row_labels, col_labels = M.row_labels, M.col_labels
    if row_order is not None:
        order = [_check_index(i, M.n_rows, "row") for i in row_order]
        if sorted(order) != list(range(M.n_rows)):
            raise IndexOutOfRange("row_order must be a permutation")
        arr = arr[order, :]
        if row_labels is not None:
            row_labels = tuple(row_labels[i] for i in order)
    if col_order is not None:
        order = [_check_index(j, M.n_cols, "col") for j in col_order]
        if sorted(order) != list(range(M.n_cols)):
            raise IndexOutOfRange("col_order must be a permutation")
        arr = arr[:, order]
        if col_labels is not None:
            col_labels = tuple(col_labels[j] for j in order)
    return from_matrix(arr, row_labels=row_labels, col_labels=col_labels)


def unwrap_manifest(obj: dict) -> dict:
    """The payload of a manifest-wrapped document ({"result": {...}}), else obj."""
    if not isinstance(obj, dict):
        raise NonRectangular(f"expected a JSON object, got {type(obj).__name__}")
    if "matrix" not in obj and isinstance(obj.get("result"), dict):
        return obj["result"]
    return obj


def from_jsonable(obj: dict, normalize: bool = False) -> JointPMF:
    """Build from the file schema {"matrix": [[...]], labels...}.

    Accepts a manifest-wrapped document ({"result": {...}}) so command
    outputs can be piped back in as inputs.
    """
    obj = unwrap_manifest(obj)
    if "matrix" not in obj:
        raise NonRectangular('JSON object lacks a "matrix" key')
    return from_matrix(
        obj["matrix"],
        normalize=normalize,
        row_labels=obj.get("row_labels"),
        col_labels=obj.get("col_labels"),
    )


def load_json(path: str, normalize: bool = False) -> JointPMF:
    with open(path, "r", encoding="utf-8") as fh:
        return from_jsonable(json.load(fh), normalize=normalize)


def save_json(M: JointPMF, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(M.to_jsonable(), fh, sort_keys=True)
        fh.write("\n")
