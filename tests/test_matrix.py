"""Dense/CSR containers, conversions, footprints, serialization."""

from __future__ import annotations

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    CsrMatrix,
    DenseMatrix,
    FingerprintVector,
    FormatError,
    ShapeError,
    deserialize,
    from_rows,
    memory_footprint,
    serialize,
    to_csr,
    to_dense,
)
from molfp.matrix import _DIGITS, _WRITE_CHUNK, vstack

MIB = 1024 * 1024


def vec(length: int, variant: str, entries: dict) -> FingerprintVector:
    return FingerprintVector(length, variant, entries)


def roundtrip(m) -> str:
    buf = io.StringIO()
    serialize(m, buf)
    return buf.getvalue()


class TestFromRows:
    def test_dense_binary(self):
        m = from_rows([vec(3, "binary", {0: 1}), vec(3, "binary", {2: 1})], "dense")
        assert m.dtype == "u8"
        assert np.array_equal(m.values, [[1, 0, 0], [0, 0, 1]])

    def test_sparse_binary(self):
        m = from_rows([vec(3, "binary", {0: 1}), vec(3, "binary", {2: 1})], "sparse")
        assert list(m.indptr) == [0, 1, 2]
        assert list(m.indices) == [0, 2]
        assert list(m.data) == [1, 1]

    def test_empty_list(self):
        m = from_rows([], "dense", cols=2048)
        assert m.rows == 0 and m.cols == 2048

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ShapeError):
            from_rows([vec(3, "binary", {}), vec(4, "binary", {})])

    def test_mixed_variants_rejected(self):
        with pytest.raises(ShapeError):
            from_rows([vec(3, "binary", {}), vec(3, "count", {})])

    def test_count_rows_use_u32(self):
        m = from_rows([vec(4, "count", {1: 300})], "dense")
        assert m.dtype == "u32"
        assert m.values[0, 1] == 300

    def test_row_order_preserved(self):
        rows = [vec(4, "count", {i % 4: i + 1}) for i in range(8)]
        m = from_rows(rows, "sparse")
        d = to_dense(m)
        for i, r in enumerate(rows):
            assert d.values[i, i % 4] == i + 1


class TestConversions:
    def test_example(self):
        d = DenseMatrix(np.array([[0, 2, 0], [1, 0, 0]]), "u32")
        c = to_csr(d)
        assert list(c.indptr) == [0, 1, 2]
        assert list(c.indices) == [1, 0]
        assert list(c.data) == [2, 1]

    def test_zero_matrix(self):
        c = to_csr(DenseMatrix(np.zeros((3, 4)), "u8"))
        assert c.nnz == 0
        assert np.array_equal(to_dense(c).values, np.zeros((3, 4)))

    def test_vstack_offsets_indptr(self):
        top = to_csr(DenseMatrix(np.array([[0, 2, 0], [1, 0, 3]]), "u32"))
        empty = to_csr(DenseMatrix(np.zeros((0, 3)), "u32"))
        bottom = to_csr(DenseMatrix(np.array([[0, 0, 0], [0, 5, 0]]), "u32"))
        stacked = vstack([top, empty, bottom])
        assert list(stacked.indptr) == [0, 1, 3, 3, 4]
        assert list(stacked.indices) == [1, 0, 2, 1]
        expected = [[0, 2, 0], [1, 0, 3], [0, 0, 0], [0, 5, 0]]
        assert np.array_equal(to_dense(stacked).values, expected)
        with pytest.raises(ShapeError):
            vstack([top, to_csr(DenseMatrix(np.zeros((1, 3)), "u8"))])

    def test_random_roundtrip(self):
        rng = random.Random(99)
        for _ in range(5):
            dense = np.array(
                [[rng.choice([0, 0, 0, 1, 2, 9]) for _ in range(64)] for _ in range(100)]
            )
            d = DenseMatrix(dense, "u32")
            assert np.array_equal(to_dense(to_csr(d)).values, d.values)


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ShapeError):
            CsrMatrix(1, 3, "u8", np.array([1, 2]), np.array([0]), np.array([1]))

    def test_indices_strictly_increasing(self):
        with pytest.raises(ShapeError):
            CsrMatrix(1, 3, "u8", np.array([0, 2]), np.array([1, 1]), np.array([1, 1]))
        # Row starts may step down; inside row 3 a repeat or a descent may not,
        # also when row 3 follows an empty row or is the last row.
        for indptr, indices in (
            ([0, 2, 3, 5, 7], [0, 2, 1, 0, 3, 2, 2]),
            ([0, 2, 3, 3, 5], [0, 2, 1, 2, 1]),
            ([0, 1, 1, 1, 3, 4], [4, 3, 3, 0]),
            ([0, 2, 3, 3, 5, 5], [0, 2, 1, 4, 4]),
        ):
            data = np.ones(len(indices))
            with pytest.raises(ShapeError, match="row 3"):
                CsrMatrix(len(indptr) - 1, 5, "u8", np.array(indptr), np.array(indices), data)
        CsrMatrix(4, 5, "u8", np.array([0, 2, 3, 3, 5]), np.array([0, 2, 1, 0, 4]), np.ones(5))

    def test_no_stored_zeros(self):
        with pytest.raises(ShapeError):
            CsrMatrix(1, 3, "u8", np.array([0, 1]), np.array([1]), np.array([0]))

    def test_index_bound(self):
        with pytest.raises(ShapeError):
            CsrMatrix(1, 3, "u8", np.array([0, 1]), np.array([3]), np.array([1]))


class TestFootprint:
    def test_dense_table_scale(self):
        # 438k x 2048 u8 comes out near 855 MiB
        m = DenseMatrix(np.zeros((1, 1)), "u8")
        footprint = 438_000 * 2048  # formula: rows*cols*1
        assert memory_footprint(DenseMatrix(np.zeros((2, 3)), "u8")) == 6
        assert abs(footprint / MIB - 855.5) < 1.0

    def test_csr_indptr_only(self):
        c = to_csr(DenseMatrix(np.zeros((10, 2048)), "u8"))
        assert memory_footprint(c) == 44

    def test_one_percent_density_regime(self):
        rng = random.Random(1)
        rows, cols = 1000, 2048
        entries = []
        for _ in range(rows):
            nz = sorted(rng.sample(range(cols), 20))
            entries.append({i: 1 for i in nz})
        vecs = [vec(cols, "binary", e) for e in entries]
        dense = from_rows(vecs, "dense")
        sparse = from_rows(vecs, "sparse")
        assert memory_footprint(dense) == rows * cols
        assert memory_footprint(sparse) == 20 * rows * 5 + (rows + 1) * 4
        assert memory_footprint(sparse) <= memory_footprint(dense) / 8

    def test_f64_element_size(self):
        m = DenseMatrix(np.zeros((2, 3)), "f64")
        assert memory_footprint(m) == 48

    def test_two_percent_density_still_eight_fold(self):
        rng = random.Random(2)
        rows, cols = 200, 2048
        vecs = [
            vec(cols, "binary", {i: 1 for i in rng.sample(range(cols), 40)})
            for _ in range(rows)
        ]
        dense = from_rows(vecs, "dense")
        sparse = from_rows(vecs, "sparse")
        assert sparse.nnz / (rows * cols) <= 0.02
        assert memory_footprint(sparse) <= memory_footprint(dense) / 8


class TestSerialization:
    def test_dense_header(self):
        text = roundtrip(DenseMatrix(np.array([[1, 0], [0, 2]]), "u8"))
        assert text.startswith("DENSEv1 2 2 u8\n")
        assert text.endswith("\n")

    def test_csr_header_grammar(self):
        c = to_csr(DenseMatrix(np.array([[0, 5, 0], [7, 0, 0]]), "u32"))
        text = roundtrip(c)
        assert text.splitlines()[0] == "CSRv1 2 3 2 u32"

    def test_roundtrip_dense(self):
        d = DenseMatrix(np.array([[1, 0, 3], [0, 9, 0]]), "u32")
        back = deserialize(io.StringIO(roundtrip(d)))
        assert isinstance(back, DenseMatrix)
        assert np.array_equal(back.values, d.values)

    def test_roundtrip_csr(self):
        c = to_csr(DenseMatrix(np.array([[0, 2, 0], [1, 0, 0]]), "u8"))
        back = deserialize(io.StringIO(roundtrip(c)))
        assert isinstance(back, CsrMatrix)
        assert roundtrip(back) == roundtrip(c)

    def test_roundtrip_f64_bit_exact(self):
        values = np.array([[0.1, -2.5e-17, 3.0], [1 / 3, 0.0, 46.069]])
        d = DenseMatrix(values, "f64")
        back = deserialize(io.StringIO(roundtrip(d)))
        assert np.array_equal(back.values, d.values)

    def test_truncated_file(self):
        c = to_csr(DenseMatrix(np.array([[0, 2, 0], [1, 0, 0]]), "u8"))
        text = roundtrip(c)
        with pytest.raises(FormatError):
            deserialize(io.StringIO("\n".join(text.splitlines()[:2])))

    def test_bad_header(self):
        with pytest.raises(FormatError):
            deserialize(io.StringIO("NOPEv9 1 1 u8\n0\n"))
        with pytest.raises(FormatError):
            deserialize(io.StringIO(""))

    def test_wrong_counts_name_line(self):
        with pytest.raises(FormatError) as exc:
            deserialize(io.StringIO("DENSEv1 2 3 u8\n1 0 0\n"))
        assert exc.value.line >= 2

    def test_value_out_of_range(self):
        with pytest.raises(FormatError):
            deserialize(io.StringIO("DENSEv1 1 1 u8\n300\n"))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("CSRv1 1 8 1 u8\n0 1\n4294967299\n1\n", 3),
            ("CSRv1 1 8 1 u8\n0 4294967297\n3\n1\n", 2),
            ("CSRv1 1 8 1 u8\n0 1\n99999999999999999999\n1\n", 3),
            ("CSRv1 1 8 1 u8\n0 1\n-2147483649\n1\n", 3),
            ("CSRv1 1 8 1 u8\n0 2147483648\n3\n1\n", 2),
        ],
    )
    def test_csr_integer_outside_int32(self, text, line):
        # Such values once wrapped silently into int32 (4294967299 read
        # as column 3) or escaped as a bare OverflowError.
        with pytest.raises(FormatError) as exc:
            deserialize(io.StringIO(text))
        assert exc.value.line == line
        assert "outside int32" in exc.value.message

    @pytest.mark.parametrize("index", ["-1", "8", "2147483647", "-2147483648"])
    def test_csr_index_in_int32_out_of_range(self, index):
        with pytest.raises(FormatError) as exc:
            deserialize(io.StringIO(f"CSRv1 1 8 1 u8\n0 1\n{index}\n1\n"))
        assert exc.value.line == 2
        assert exc.value.message == (
            "inconsistent CSR structure: column index out of range"
        )

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("DENSEv1 2 2 u8\n1 2\n3 x\n", 3, "bad u8 value 'x'"),
            ("DENSEv1 1 2 u8\n300 x\n", 2, "u8 value out of range: 300"),
            ("DENSEv1 1 2 u8\nx 300\n", 2, "bad u8 value 'x'"),
            ("DENSEv1 1 2 u8\n1 -1\n", 2, "u8 value out of range: -1"),
            ("DENSEv1 1 2 u32\n0 4294967296\n", 2, "u32 value out of range: 4294967296"),
            ("DENSEv1 1 2 f64\n1.5 x\n", 2, "bad f64 value 'x'"),
            ("DENSEv1 2 2 f64\n1 2\n3\n", 3, "expected 2 values, got 1"),
            ("CSRv1 1 8 2 u8\n0 x\n1 3\n5 7\n", 2, "bad integer in indptr"),
            ("CSRv1 1 8 2 u8\n0 2\n1 x\n5 7\n", 3, "bad integer in indices"),
            # A bad field outranks an earlier value outside int32.
            ("CSRv1 1 8 2 u8\n0 2\n99999999999999999999 x\n5 7\n", 3, "bad integer in indices"),
            ("CSRv1 1 8 2 u8\n0 -2147483649\n1 3\n5 7\n", 2, "indptr value outside int32"),
            ("CSRv1 1 8 2 u8\n0 2 2\n1 3\n5 7\n", 2, "expected 2 indptr entries, got 3"),
            ("CSRv1 1 8 2 u8\n0 2\n1\n5 7\n", 3, "expected 2 indices entries, got 1"),
            ("CSRv1 1 8 2 u8\n0 2\n1 3\n5\n", 4, "expected 2 data entries, got 1"),
            ("CSRv1 1 8 2 u8\n0 2\n1 3\n5 x\n", 4, "bad u8 value 'x'"),
            ("CSRv1 1 8 2 u8\n0 2\n1 3\n256 x\n", 4, "u8 value out of range: 256"),
            (
                "CSRv1 1 8 2 u32\n0 2\n1 3\n99999999999999999999 1\n",
                4,
                "u32 value out of range: 99999999999999999999",
            ),
            ("CSRv1 1 8 2 f64\n0 2\n1 3\n1e3 y\n", 4, "bad f64 value 'y'"),
            # int() and float() would read these Arabic-Indic digits.
            ("CSRv1 1 8 1 u8\n0 1\n١\n1\n", 3, "bad integer in indices"),
            ("DENSEv1 1 2 f64\n١.٥ 2\n", 2, "bad f64 value '١.٥'"),
            ("DENSEv1 ١ 2 u8\n1 2\n", 1, "non-integer shape in header"),
            # Fields are split at ASCII whitespace only, not at U+3000.
            ("DENSEv1 1 2 u8\n1\u30002\n", 2, "expected 2 values, got 1"),
            ("CSRv1 1 4 2 u8\n0 2\n0\u30003\n1 1\n", 3, "expected 2 indices entries, got 1"),
            ("DENSEv1\u30001 2 u8\n1 2\n", 1, "unknown format 'DENSEv1\\u30001'"),
            ("DENSEv1 1 2 u8\n1 2\n\u3000\n", 3, "trailing content after matrix rows"),
        ],
    )
    def test_rejected_value_names_line(self, text, line, message):
        with pytest.raises(FormatError) as exc:
            deserialize(io.StringIO(text))
        assert (exc.value.line, exc.value.message) == (line, message)

    def test_values_read_as_python_literals(self):
        dense = deserialize(io.StringIO("DENSEv1 1 3 f64\nnan -inf 1_0.5\n"))
        assert np.isnan(dense.values[0, 0]) and dense.values[0, 1] == -np.inf
        assert dense.values[0, 2] == 10.5
        c = deserialize(io.StringIO("CSRv1 1 16 2 u32\n+0 2\n1_0 1_2\n+5 4_294_967_295\n"))
        assert (c.indptr.tolist(), c.indices.tolist()) == ([0, 2], [10, 12])
        assert c.data.tolist() == [5, 2**32 - 1]

    @pytest.mark.parametrize(
        "text, arrays",
        [
            # Leading zeros are decimal, not octal.
            ("CSRv1 1 8 2 u8\n000 02\n001 0007\n0010 255\n", ([0, 2], [1, 7], [10, 255])),
            # 18, 19 and 28 digits.
            ("CSRv1 1 8 1 u32\n0 1\n3\n000000004294967295\n", ([0, 1], [3], [2**32 - 1])),
            ("CSRv1 1 8 1 u32\n0 1\n3\n0000000004294967295\n", ([0, 1], [3], [2**32 - 1])),
            ("CSRv1 1 8 1 u8\n0 1\n0000000000000000000000000003\n7\n", ([0, 1], [3], [7])),
        ],
    )
    def test_digit_lines_read_as_before(self, text, arrays):
        c = deserialize(io.StringIO(text))
        assert (c.indptr.tolist(), c.indices.tolist(), c.data.tolist()) == arrays

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("DENSEv1 1 2 u8\n1 256\n", 2, "u8 value out of range: 256"),
            ("CSRv1 1 8 1 u8\n0 1\n3\n256\n", 4, "u8 value out of range: 256"),
            (
                "CSRv1 1 8 1 u32\n0 1\n3\n999999999999999999\n",
                4,
                "u32 value out of range: 999999999999999999",
            ),
            (
                "CSRv1 1 8 1 u32\n0 1\n3\n9999999999999999999\n",
                4,
                "u32 value out of range: 9999999999999999999",
            ),
            # Beyond int64, where numpy gives the int64 maximum.
            (
                "CSRv1 1 8 1 u32\n0 1\n3\n18446744073709551617\n",
                4,
                "u32 value out of range: 18446744073709551617",
            ),
            ("CSRv1 1 8 1 u8\n0 1\n18446744073709551619\n1\n", 3, "indices value outside int32"),
            ("CSRv1 1 8 1 u8\n0 2147483648\n3\n1\n", 2, "indptr value outside int32"),
            ("CSRv1 1 8 1 u8\n0 1\n2147483648\n1\n", 3, "indices value outside int32"),
            ("CSRv1 1 8 1 u8\n0 1\n1 3\n1\n", 3, "expected 1 indices entries, got 2"),
            ("DENSEv1 1 2 u32\n1 2 3\n", 2, "expected 2 values, got 3"),
        ],
    )
    def test_digit_lines_rejected_as_before(self, text, line, message):
        with pytest.raises(FormatError) as exc:
            deserialize(io.StringIO(text))
        assert (exc.value.line, exc.value.message) == (line, message)

    @pytest.mark.parametrize("line", ["+1 2", "1_0 2", "1  2", "1\t2", "1 2 "])
    def test_other_integer_lines_read_per_field(self, line):
        assert _DIGITS.fullmatch(line) is None or "  " in line
        dense = deserialize(io.StringIO(f"DENSEv1 1 2 u32\n{line}\n"))
        assert dense.values.tolist() == [[int(f) for f in line.split()]]

    def test_digit_check_memory_flat_in_fields(self):
        # A repeated group would keep over 100 bytes of backtracking
        # state per field: over 10 MB here.
        line = " ".join(["1234"] * 100_000)
        tracemalloc.start()
        try:
            assert _DIGITS.fullmatch(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_csr_value_text(self):
        c = CsrMatrix(1, 4, "f64", [0, 3], [0, 1, 3], [1e300, -1e-300, 0.1])
        assert roundtrip(c) == "CSRv1 1 4 3 f64\n0 3\n0 1 3\n1e+300 -1e-300 0.1\n"
        c = CsrMatrix(1, 4, "u32", [0, 2], [1, 2], [4294967295, 7])
        assert roundtrip(c) == "CSRv1 1 4 2 u32\n0 2\n1 2\n4294967295 7\n"

    def test_csr_lines_longer_than_a_write(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 4, size=(3, 6000)) * rng.integers(1, 2**32, size=(3, 6000))
        c = to_csr(DenseMatrix(values, "u32"))
        assert c.nnz > 3 * _WRITE_CHUNK
        lines = roundtrip(c).splitlines()[1:]
        assert lines == [" ".join(map(str, a.tolist())) for a in (c.indptr, c.indices, c.data)]
        assert roundtrip(deserialize(io.StringIO(roundtrip(c)))) == roundtrip(c)

    def test_empty_csr(self):
        c = from_rows([], "sparse", cols=16)
        back = deserialize(io.StringIO(roundtrip(c)))
        assert back.rows == 0 and back.cols == 16 and back.nnz == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 15), st.integers(1, 255), max_size=8),
        min_size=0,
        max_size=6,
    )
)
def test_serialization_roundtrip_property(entry_rows):
    vecs = [vec(16, "count", e) for e in entry_rows]
    for form in ("dense", "sparse"):
        m = from_rows(vecs, form, cols=16)
        back = deserialize(io.StringIO(roundtrip(m)))
        assert roundtrip(back) == roundtrip(m)
