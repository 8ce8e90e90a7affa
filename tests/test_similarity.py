"""Similarity coefficients and bulk top-k search."""

from __future__ import annotations

import io
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    CsrMatrix,
    FingerprintConfig,
    Fingerprinter,
    FingerprintVector,
    ShapeError,
    BatchOptions,
    bulk_top_k,
    dice,
    tanimoto,
    deserialize,
    serialize,
    transform_batch,
)
from molfp.matrix import from_rows, vstack

from .oracles import full_scan_top_k


def vec(entries: set[int], length: int = 16, variant: str = "binary") -> FingerprintVector:
    value = 1 if variant == "binary" else 2
    return FingerprintVector(length, variant, {i: value for i in entries})


class TestCoefficients:
    def test_self_similarity(self):
        v = vec({1, 5, 9})
        assert tanimoto(v, v) == 1.0
        assert dice(v, v) == 1.0

    def test_disjoint(self):
        assert tanimoto(vec({0, 1}), vec({2, 3})) == 0.0

    def test_worked_values(self):
        a, b = vec({0, 1}), vec({1, 2})
        assert tanimoto(a, b) == pytest.approx(1 / 3)
        assert dice(a, b) == pytest.approx(0.5)

    def test_both_empty_convention(self):
        assert tanimoto(vec(set()), vec(set())) == 0.0
        assert dice(vec(set()), vec(set())) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tanimoto(vec({0}), vec({0}, length=32))
        with pytest.raises(ShapeError):
            dice(vec({0}), vec({0}, length=32))

    def test_count_inputs_binarized(self):
        a = vec({0, 1}, variant="count")
        b = vec({1, 2})
        assert tanimoto(a, b) == pytest.approx(1 / 3)
        assert tanimoto(a.to_binary(), b) == tanimoto(a, b)

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(4)
        for _ in range(1000):
            a = vec({rng.randrange(16) for _ in range(rng.randrange(8))})
            b = vec({rng.randrange(16) for _ in range(rng.randrange(8))})
            t, d = tanimoto(a, b), dice(a, b)
            assert 0.0 <= t <= 1.0 and 0.0 <= d <= 1.0
            assert t == tanimoto(b, a) and d == dice(b, a)
            assert d >= t  # dice = 2t/(1+t) on the same supports


@settings(max_examples=300, deadline=None)
@given(
    a=st.sets(st.integers(0, 15)),
    b=st.sets(st.integers(0, 15)),
)
def test_dice_tanimoto_identity(a, b):
    t = tanimoto(vec(a), vec(b))
    d = dice(vec(a), vec(b))
    if t:
        assert d == pytest.approx(2 * t / (1 + t))
    else:
        assert d == 0.0


@pytest.fixture(scope="module")
def db(corpus1000):
    fp = Fingerprinter(FingerprintConfig(family="ecfp", length=512))
    smis = corpus1000[:500]
    mat, _ = transform_batch(smis, fp, BatchOptions(jobs=2), output="sparse")
    rows = [fp.transform_one(s) for s in smis]
    return mat, rows


@pytest.fixture(scope="module")
def novel(corpus1000):
    fp = Fingerprinter(FingerprintConfig(family="ecfp", length=512))
    return [fp.transform_one(s) for s in corpus1000[900:920]]


@pytest.fixture(scope="module")
def copies(db):
    """``db``'s matrix stacked from blocks of 120 rows, and reloaded from text."""
    mat, rows = db
    stacked = vstack([from_rows(rows[a : a + 120], "sparse") for a in range(0, 500, 120)])
    buf = io.StringIO()
    serialize(mat, buf)
    buf.seek(0)
    return stacked, deserialize(buf)


def row_supports(mat) -> list[set[int]]:
    return [set(mat.indices[a:b].tolist()) for a, b in zip(mat.indptr[:-1], mat.indptr[1:])]


def assert_matches_oracle(query, mat, ks=None, metrics=("tanimoto", "dice")):
    """Hits and scores of bulk_top_k equal the full scan's exactly."""
    supports = row_supports(mat)
    for metric in metrics:
        for k in ks or (1, 10, 25, mat.rows):
            hits = bulk_top_k(query, mat, k, metric)
            want = full_scan_top_k(set(query.entries), supports, k, metric)
            assert [(h.row, h.score) for h in hits] == want, (metric, k)


class TestBulkTopK:
    def test_self_query_ranks_first(self, db):
        mat, rows = db
        hits = bulk_top_k(rows[123], mat, 5)
        assert hits[0].row == 123
        assert hits[0].score == 1.0

    def test_k_larger_than_rows(self, db):
        mat, rows = db
        hits = bulk_top_k(rows[0], mat, 10_000)
        assert len(hits) == mat.rows

    def test_matches_full_scan_oracle(self, db, novel):
        mat, rows = db
        for q in (0, 17, 99, 250, 311, 499):
            assert_matches_oracle(rows[q], mat)
        for query in novel[:8]:
            assert_matches_oracle(query, mat)

    def test_total_order_consistent_with_pairwise(self, db):
        mat, rows = db
        hits = bulk_top_k(rows[7], mat, mat.rows)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        check = random.Random(0).sample(hits, 30)
        for h in check:
            assert tanimoto(rows[7], rows[h.row]) == pytest.approx(h.score)

    def test_tie_break_by_row_index(self):
        rows = [vec({0, 1}), vec({0, 1}), vec({0, 1})]
        mat = from_rows(rows, "sparse")
        hits = bulk_top_k(vec({0, 1}), mat, 3)
        assert [h.row for h in hits] == [0, 1, 2]

    def test_empty_query_scores_zero_in_row_order(self, db):
        mat, _ = db
        for metric in ("tanimoto", "dice"):
            hits = bulk_top_k(vec(set(), length=mat.cols), mat, 10, metric)
            assert [(h.row, h.score) for h in hits] == [(r, 0.0) for r in range(10)]
        assert_matches_oracle(vec(set(), length=mat.cols), mat)

    def test_empty_rows(self):
        rows = [vec(set()), vec({1, 2}), vec(set()), vec({2, 3, 4}), vec(set()), vec({7})]
        mat = from_rows(rows, "sparse")
        for query in (vec({2}), vec({7, 9}), vec(set()), vec({15})):
            assert_matches_oracle(query, mat, ks=range(1, mat.rows + 2))

    def test_ties_across_kth_place(self):
        # Five groups of eight equal rows, interleaved, so every k cuts
        # through a run of tied scores.
        groups = [{0, 1, 2}, {0, 1}, {0, 5, 6}, {9}, set()]
        mat = from_rows([vec(groups[i % 5]) for i in range(40)], "sparse")
        for query in (vec({0, 1, 2}), vec({0}), vec({9, 10})):
            assert_matches_oracle(query, mat, ks=range(1, 42))

    def test_count_matrix_binarized(self, corpus1000):
        fp = Fingerprinter(FingerprintConfig(family="ecfp", variant="count", length=256))
        smis = corpus1000[:200]
        mat, _ = transform_batch(smis, fp, BatchOptions(), output="sparse")
        assert mat.dtype == "u32" and mat.data.max() > 1
        binary = from_rows([fp.transform_one(s).to_binary() for s in smis], "sparse")
        for q in (0, 50, 199):
            query = fp.transform_one(smis[q])
            assert_matches_oracle(query, mat)
            assert bulk_top_k(query, mat, 200) == bulk_top_k(query.to_binary(), binary, 200)

    def test_repeated_queries_reuse_index(self, db, novel):
        mat, rows = db
        fresh = from_rows(rows, "sparse")
        index = fresh.column_index
        first = [bulk_top_k(q, fresh, 10) for q in novel]
        assert fresh.column_index is index
        assert [bulk_top_k(q, fresh, 10) for q in novel] == first
        assert first == [bulk_top_k(q, mat, 10) for q in novel]

    def test_column_index_lists_rows_in_order(self, db):
        mat, _ = db
        col_ptr, col_rows = mat.column_index
        supports = row_supports(mat)
        assert len(col_ptr) == mat.cols + 1 and len(col_rows) == mat.nnz
        for c in range(mat.cols):
            want = [r for r, support in enumerate(supports) if c in support]
            assert col_rows[col_ptr[c] : col_ptr[c + 1]].tolist() == want

    def test_stacked_and_reloaded_matrices(self, db, novel, copies):
        mat, rows = db
        for other in copies:
            for query in (rows[42], novel[3]):
                assert bulk_top_k(query, other, 25) == bulk_top_k(query, mat, 25)
                assert_matches_oracle(query, other, ks=(25,))

    def test_arrays_are_read_only(self, db):
        mat, _ = db
        for array in (mat.indptr, mat.indices, mat.data):
            with pytest.raises(ValueError):
                array[0] = array[0]
        indices = np.array([0, 2], dtype=np.int32)
        own = CsrMatrix(1, 4, "u8", np.array([0, 2], dtype=np.int32), indices, np.ones(2, np.uint8))
        indices[0] = 1  # the caller's own array stays writable
        assert own.indices.base is indices

    def test_pickled_matrix_stays_read_only(self, db):
        mat, _ = db
        mat.column_index
        back = pickle.loads(pickle.dumps(mat))
        assert "column_index" not in vars(back)
        for array in (back.indptr, back.indices, back.data):
            assert not array.flags.writeable
        assert np.array_equal(back.column_index[1], mat.column_index[1])

    def test_row_sizes_built_once_and_read_only(self, db):
        mat, rows = db
        sizes = mat.row_sizes
        assert mat.row_sizes is sizes
        assert sizes.dtype == np.int64 and not sizes.flags.writeable
        assert sizes.tolist() == [len(r.entries) for r in rows]
        with pytest.raises(ValueError):
            sizes[0] = sizes[0]

    def test_pickled_matrix_rebuilds_row_sizes(self, db):
        mat, _ = db
        mat.row_sizes
        back = pickle.loads(pickle.dumps(mat))
        assert "row_sizes" not in vars(back)
        assert not back.row_sizes.flags.writeable
        assert np.array_equal(back.row_sizes, mat.row_sizes)

    def test_stacked_and_reloaded_row_sizes_score_the_same(self, db, novel, copies):
        mat, rows = db
        empty = vec(set(), length=mat.cols)
        for other in copies:
            assert np.array_equal(other.row_sizes, mat.row_sizes)
            for query in (rows[42], novel[3], empty):
                for metric in ("tanimoto", "dice"):
                    for k in (1, 10, mat.rows):
                        want = bulk_top_k(query, mat, k, metric)
                        assert bulk_top_k(query, other, k, metric) == want

    def test_shape_errors(self, db):
        mat, rows = db
        with pytest.raises(ShapeError):
            bulk_top_k(vec({0}, length=8), mat, 3)
        with pytest.raises(ShapeError):
            bulk_top_k(rows[0], mat, 0)

    @pytest.mark.parametrize("k", [True, False, 1.5, 2.0, "3", None])
    def test_non_integer_k_rejected(self, db, k):
        mat, rows = db
        with pytest.raises(ShapeError):
            bulk_top_k(rows[0], mat, k)

    def test_numpy_integer_k(self, db):
        mat, rows = db
        assert bulk_top_k(rows[0], mat, np.int64(4)) == bulk_top_k(rows[0], mat, 4)


@settings(max_examples=200, deadline=None)
@given(
    supports=st.lists(st.sets(st.integers(0, 7), max_size=4), max_size=12),
    query=st.sets(st.integers(0, 7), max_size=4),
    k=st.integers(1, 14),
    metric=st.sampled_from(["tanimoto", "dice"]),
)
def test_random_matrices_match_full_scan(supports, query, k, metric):
    mat = from_rows([vec(s, length=8) for s in supports], "sparse", cols=8)
    hits = bulk_top_k(vec(query, length=8), mat, k, metric)
    want = full_scan_top_k(query, supports, k, metric)
    assert [(h.row, h.score) for h in hits] == want
