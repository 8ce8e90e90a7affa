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
    ascending row index.  The query's shared bits with every row are
    counted with one ``bincount`` over the rows of its own columns, read
    from ``db.column_index``; each score is then one division by a
    denominator built from ``db.row_sizes`` (both built on the first
    search of a matrix, then reused).  A non-empty query makes every
    denominator at least 1, and an empty query scores 0 against every
    row.
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
    if query.entries:
        col_ptr, col_rows = db.column_index
        shared = [col_rows[col_ptr[c] : col_ptr[c + 1]] for c in query.entries]
        inter = np.bincount(np.concatenate(shared), minlength=db.rows)
        # Every denominator is at least the query's bit count, so no row
        # needs a zero-denominator mask.
        if metric == "tanimoto":
            scores = inter / (len(query.entries) + db.row_sizes - inter)
        else:
            scores = 2.0 * inter / (len(query.entries) + db.row_sizes)
    else:
        scores = np.zeros(db.rows)

    take = min(k, db.rows)
    if take < db.rows:
        # Rows scoring at or above the k-th largest score, ascending.
        rows = np.flatnonzero(scores >= np.partition(scores, db.rows - take)[db.rows - take])
    else:
        rows = np.arange(db.rows)
    order = rows[np.lexsort((rows, -scores[rows]))][:take]
    return [SimilarityHit(r, s) for r, s in zip(order.tolist(), scores[order].tolist())]
