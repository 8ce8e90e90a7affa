"""Binary similarity coefficients and exact bulk top-k search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .fingerprints import FingerprintVector
from .matrix import CsrMatrix


@dataclass(frozen=True)
class SimilarityHit:
    row: int
    score: float


def _support(v: FingerprintVector) -> frozenset[int]:
    return frozenset(v.entries)


def tanimoto(a: FingerprintVector, b: FingerprintVector) -> float:
    """|a AND b| / |a OR b| on binarized supports; both-empty gives 0."""
    if a.length != b.length:
        raise ShapeError(f"length mismatch: {a.length} vs {b.length}")
    sa, sb = _support(a), _support(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def dice(a: FingerprintVector, b: FingerprintVector) -> float:
    """2|a AND b| / (|a| + |b|) on binarized supports; both-empty gives 0."""
    if a.length != b.length:
        raise ShapeError(f"length mismatch: {a.length} vs {b.length}")
    sa, sb = _support(a), _support(b)
    denom = len(sa) + len(sb)
    if denom == 0:
        return 0.0
    return 2 * len(sa & sb) / denom


METRICS = {"tanimoto": tanimoto, "dice": dice}


def bulk_top_k(
    query: FingerprintVector, db: CsrMatrix, k: int, metric: str = "tanimoto"
) -> list[SimilarityHit]:
    """Exact top-k search over the rows of a CSR fingerprint matrix.

    Count data is binarized (any stored entry counts as presence).
    Returns min(k, rows) hits sorted by descending score, ties broken by
    ascending row index.  Only the rows that store one of the query's
    columns are visited, through ``db.column_index`` (built on the
    first search of a matrix, then reused).
    """
    if metric not in METRICS:
        raise ShapeError(f"unknown metric {metric!r}")
    if not isinstance(db, CsrMatrix):
        raise ShapeError("bulk_top_k scans CSR matrices; convert dense input first")
    if query.length != db.cols:
        raise ShapeError(f"query length {query.length} != matrix cols {db.cols}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ShapeError(f"k must be an integer, not {k!r}")
    if k < 1:
        raise ShapeError("k must be at least 1")
    col_ptr, col_rows = db.column_index
    q_size = len(query.entries)
    shared = [col_rows[col_ptr[c] : col_ptr[c + 1]] for c in query.entries]
    # col_rows[:0] gives an empty query one (empty) array to concatenate.
    inter = np.bincount(np.concatenate([col_rows[:0], *shared]), minlength=db.rows)
    row_nnz = np.diff(db.indptr)

    if metric == "tanimoto":
        denom = q_size + row_nnz - inter
    else:
        denom = np.full(db.rows, q_size, dtype=np.int64) + row_nnz
    scores = np.zeros(db.rows, dtype=np.float64)
    nz = denom > 0
    factor = 2.0 if metric == "dice" else 1.0
    scores[nz] = factor * inter[nz] / denom[nz]

    take = min(k, db.rows)
    # Rows scoring at or above the k-th largest score, ascending.
    rows = np.arange(db.rows)
    if take < db.rows:
        rows = np.flatnonzero(scores >= np.partition(scores, db.rows - take)[db.rows - take])
    order = rows[np.lexsort((rows, -scores[rows]))][:take]
    return [SimilarityHit(r, s) for r, s in zip(order.tolist(), scores[order].tolist())]
