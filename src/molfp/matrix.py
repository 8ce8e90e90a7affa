"""Batch output containers: dense and CSR matrices with text serialization.

Formats:
  DENSEv1: header ``DENSEv1 <rows> <cols> <dtype>`` then one
  space-separated row per line.
  CSRv1: header ``CSRv1 <rows> <cols> <nnz> <dtype>`` then indptr,
  indices, and data each on one space-separated line.
dtype is one of u8, u32, f64.  Serialization is bit-exact round-trip;
floats are written with repr (shortest round-trip form).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import FormatError, ShapeError
from .fingerprints import MAX_COLS, VARIANT_DTYPES, FingerprintVector

_NUMPY_DTYPE = {"u8": np.uint8, "u32": np.uint32, "f64": np.float64}
_INDEX_BYTES = 4  # fixed CSR index width
# Values joined per write: a CSR line holds every entry of the matrix,
# and joining it whole would hold a string per entry at once.
_WRITE_CHUNK = 4096


@dataclass(eq=False)
class DenseMatrix:
    values: np.ndarray
    dtype: str

    def __post_init__(self) -> None:
        if self.dtype not in _NUMPY_DTYPE:
            raise ShapeError(f"unknown dtype {self.dtype!r}")
        self.values = np.ascontiguousarray(self.values, dtype=_NUMPY_DTYPE[self.dtype])
        if self.values.ndim != 2:
            raise ShapeError("dense payload must be 2-dimensional")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(eq=False)
class CsrMatrix:
    """Rows of (column, value) entries, columns strictly increasing in
    each row.  The three arrays are read-only views once the matrix is
    built, so ``row_sizes`` and ``column_index``, built on first use and
    kept, cannot go stale."""

    rows: int
    cols: int
    dtype: str
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.dtype not in _NUMPY_DTYPE:
            raise ShapeError(f"unknown dtype {self.dtype!r}")
        self.indptr = _read_only(np.asarray(self.indptr, dtype=np.int32))
        self.indices = _read_only(np.asarray(self.indices, dtype=np.int32))
        self.data = _read_only(np.asarray(self.data, dtype=_NUMPY_DTYPE[self.dtype]))
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative shape")
        if self.indptr.shape != (self.rows + 1,):
            raise ShapeError("indptr length must be rows + 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing from 0")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ShapeError("indices/data length must equal indptr[rows]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.cols:
                raise ShapeError("column index out of range")
            # Indices must rise from position p to p + 1 unless a row starts at p + 1.
            down = self.indices[1:] <= self.indices[:-1]
            starts = np.zeros(nnz + 1, dtype=bool)
            starts[self.indptr[:-1]] = True
            down[starts[1:nnz]] = False
            bad = np.flatnonzero(down)
            if bad.size:
                r = int(np.searchsorted(self.indptr, bad[0] + 1, side="right")) - 1
                raise ShapeError(f"row {r} indices not strictly increasing")
            if np.any(self.data == 0):
                raise ShapeError("stored zero in CSR data")

    def __reduce__(self):
        # Unpickling goes through __init__, so the arrays come back
        # read-only and checked, and built row sizes and column index
        # are not sent.
        return CsrMatrix, (self.rows, self.cols, self.dtype, self.indptr, self.indices, self.data)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def row_sizes(self) -> np.ndarray:
        """The number of entries stored in each row: ``np.diff(indptr)``
        as int64."""
        return _read_only(np.subtract(self.indptr[1:], self.indptr[:-1], dtype=np.int64))

    @cached_property
    def column_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(col_ptr, col_rows)``: the rows that store column ``c``, in
        ascending order, are ``col_rows[col_ptr[c] : col_ptr[c + 1]]``.

        Built on first use and kept: a stable argsort of ``indices``
        (which keeps each column's entries in row order), one int32 per
        stored entry plus ``cols + 1`` offsets.
        """
        order = np.argsort(self.indices, kind="stable")
        entry_rows = np.repeat(np.arange(self.rows, dtype=np.int32), self.row_sizes)
        col_ptr = np.zeros(self.cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.cols), out=col_ptr[1:])
        return _read_only(col_ptr), _read_only(entry_rows[order])


Matrix = DenseMatrix | CsrMatrix


def row_entries(v: FingerprintVector, cols: int, variant: str) -> Mapping[int, float]:
    """``v.entries``; ShapeError unless ``v`` has length ``cols`` and ``variant``."""
    if v.length != cols or v.variant != variant:
        raise ShapeError(f"expected {variant} rows of length {cols}, got {v.variant} of {v.length}")
    return v.entries


def from_entry_rows(vectors: Iterable[FingerprintVector], cols: int, variant: str) -> CsrMatrix:
    """The CSR rows of ``vectors``, in order: the one assembly, for
    ``from_rows`` and the engine (``bench/layers.py`` traces it by name).
    Each vector passes ``row_entries`` and ``cols <= MAX_COLS`` keeps
    columns in int32.  Entries (any mapping) are read by ``np.fromiter``
    and ordered by one argsort of ``row * cols + column``."""
    if variant not in VARIANT_DTYPES or not 0 <= cols <= MAX_COLS:
        raise ShapeError(f"cannot assemble {variant!r} rows of {cols} columns")
    rows = [row_entries(v, cols, variant) for v in vectors]
    sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(sizes, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(rows), np.int32, nnz)
    dtype = VARIANT_DTYPES[variant]
    try:
        data = np.fromiter(chain.from_iterable(r.values() for r in rows), _NUMPY_DTYPE[dtype], nnz)
    except OverflowError:  # a count vector built with a count of 2**32 or more
        raise ShapeError(f"a {variant} value outside {dtype}") from None
    order = np.argsort(np.repeat(np.arange(len(rows), dtype=np.int64) * cols, sizes) + indices)
    return CsrMatrix(len(rows), cols, dtype, indptr, indices[order], data[order])


def vstack(blocks: list[CsrMatrix]) -> CsrMatrix:
    """Stack CSR blocks of one width and dtype, top to bottom: each
    block's indptr is offset by the entries of the blocks above it."""
    first = blocks[0]
    for b in blocks:
        if (b.cols, b.dtype) != (first.cols, first.dtype):
            raise ShapeError(f"cannot stack {b.dtype} x {b.cols} on {first.dtype} x {first.cols}")
    if len(blocks) == 1:
        return first
    offsets = np.cumsum([0] + [b.nnz for b in blocks[:-1]])
    return CsrMatrix(
        rows=sum(b.rows for b in blocks),
        cols=first.cols,
        dtype=first.dtype,
        indptr=np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, offsets)]),
        indices=np.concatenate([b.indices for b in blocks]),
        data=np.concatenate([b.data for b in blocks]),
    )


def from_rows(vectors: list, output: str = "dense", cols: int | None = None) -> Matrix:
    """Stack fingerprint vectors as matrix rows, preserving order.

    All vectors must share length and variant (ShapeError otherwise).
    ``cols`` is only consulted for an empty list, whose dtype is u8.
    """
    if output not in ("dense", "sparse"):
        raise ShapeError(f"unknown output form {output!r}")
    length = vectors[0].length if vectors else cols or 0
    variant = vectors[0].variant if vectors else "binary"
    m = from_entry_rows(vectors, length, variant)
    return to_dense(m) if output == "dense" else m


def to_csr(m: DenseMatrix) -> CsrMatrix:
    rows, cols = np.nonzero(m.values)
    return CsrMatrix(
        rows=m.rows,
        cols=m.cols,
        dtype=m.dtype,
        indptr=np.concatenate(([0], np.cumsum(np.count_nonzero(m.values, axis=1)))),
        indices=cols,
        data=m.values[rows, cols],
    )


def to_dense(c: CsrMatrix) -> DenseMatrix:
    values = np.zeros((c.rows, c.cols), dtype=_NUMPY_DTYPE[c.dtype])
    values[np.repeat(np.arange(c.rows), c.row_sizes), c.indices] = c.data
    return DenseMatrix(values, c.dtype)


def memory_footprint(m: Matrix) -> int:
    """Payload bytes: rows*cols*esize for dense; data + 4-byte indices
    and indptr for CSR."""
    esize = np.dtype(_NUMPY_DTYPE[m.dtype]).itemsize
    if isinstance(m, DenseMatrix):
        return m.rows * m.cols * esize
    return m.nnz * esize + m.nnz * _INDEX_BYTES + (m.rows + 1) * _INDEX_BYTES


# Per field type: parser, array dtype and inclusive bounds ("i32": CSR indptr and indices).
_FIELD_TYPES = {
    "i32": (int, np.int64, -(2**31), 2**31 - 1),
    "u8": (int, np.int64, 0, 255),
    "u32": (int, np.int64, 0, 2**32 - 1),
    "f64": (float, np.float64, None, None),
}


# The text formats are ASCII: fields are separated by ASCII whitespace
# only, the characters str.split() splits an ASCII line at.
_FIELD = re.compile(r"[^\t-\r\x1c- ]+")


# With no double space, a line of plain decimal fields: numpy reads it
# as int() reads each field, except that a value beyond int64 comes back
# as the int64 maximum, which every integer bound rejects.  The pattern
# is flat, as a repeated group keeps backtracking state for every field.
_DIGITS = re.compile(r"[0-9](?:[0-9 ]*[0-9])?")


def _fields(line: str) -> list[str]:
    return line.split() if line.isascii() else _FIELD.findall(line)


def _parse_line(
    lines: list[str], lineno: int, count: int, name: str | None, kind: str
) -> np.ndarray:
    """The ``count`` values of 1-based line ``lineno`` as one int64 or
    float64 array.  ``name`` is the CSR line (indptr, indices, data), or
    None for a dense row.  ASCII fields are read by ``int()`` or
    ``float()``, so ``+1`` and ``1_0`` are accepted but a non-ASCII digit
    such as ``١`` is not; FormatError names the line.  An integer line
    of plain digits separated by single spaces is read by one numpy
    call; its result is kept only if its count and bounds hold, and any
    other line takes the per-field path."""
    line = lines[lineno - 1]
    parse, array_type, lo, hi = _FIELD_TYPES[kind]
    if kind != "f64" and _DIGITS.fullmatch(line) and "  " not in line:
        values = np.fromstring(line, dtype=np.int64, sep=" ")
        if len(values) == count and lo <= values.min() and values.max() <= hi:
            return values
    fields = _fields(line)
    if len(fields) != count:
        noun = f"{name} entries" if name else "values"
        raise FormatError(f"expected {count} {noun}, got {len(fields)}", lineno)
    # str.isascii() is O(1); the per-field test only runs on a line with
    # non-ASCII characters.
    if line.isascii() or all(f.isascii() for f in fields):
        try:
            values = np.fromiter(map(parse, fields), array_type, count)
            if lo is None or not count or (lo <= values.min() and values.max() <= hi):
                return values
        except (ValueError, OverflowError):
            pass
    # A matrix value's message names its first bad field; an index
    # line is "bad integer" if any field is, else "outside int32".
    for f in fields:
        try:
            if not f.isascii():
                raise ValueError(f)
            value = parse(f)
        except ValueError:
            msg = f"bad integer in {name}" if kind == "i32" else f"bad {kind} value {f!r}"
            raise FormatError(msg, lineno) from None
        if kind in ("u8", "u32") and not lo <= value <= hi:
            raise FormatError(f"{kind} value out of range: {value}", lineno)
    raise FormatError(f"{name} value outside int32", lineno)


def serialize(m: Matrix, sink: IO[str]) -> None:
    """Write the matrix in its text format; output ends with a newline."""
    if isinstance(m, DenseMatrix):
        sink.write(f"DENSEv1 {m.rows} {m.cols} {m.dtype}\n")
        lines = m.values
    else:
        sink.write(f"CSRv1 {m.rows} {m.cols} {m.nnz} {m.dtype}\n")
        lines = (m.indptr, m.indices, m.data)
    for line in lines:
        for start in range(0, len(line), _WRITE_CHUNK):
            if start:
                sink.write(" ")
            sink.write(" ".join(map(repr, line[start : start + _WRITE_CHUNK].tolist())))
        sink.write("\n")


def _header_shape(fields: list[str]) -> list[int]:
    """The header's ASCII integer shape fields; FormatError otherwise."""
    try:
        if all(f.isascii() for f in fields):
            return [int(f) for f in fields]
    except ValueError:
        pass
    raise FormatError("non-integer shape in header", 1)


def deserialize(source: IO[str]) -> Matrix:
    """Parse a DENSEv1/CSRv1 stream; FormatError names the bad line."""
    lines = source.read().splitlines()
    if not lines:
        raise FormatError("empty input", 1)
    header = _fields(lines[0])
    if not header:
        raise FormatError("blank header", 1)
    kind = header[0]
    if kind == "DENSEv1":
        if len(header) != 4:
            raise FormatError("DENSEv1 header needs rows, cols, dtype", 1)
        rows, cols = _header_shape(header[1:3])
        dtype = header[3]
        if dtype not in _NUMPY_DTYPE:
            raise FormatError(f"unknown dtype {dtype!r}", 1)
        if len(lines) - 1 < rows:
            raise FormatError(f"expected {rows} rows, file has {len(lines) - 1}", len(lines))
        if len(lines) - 1 > rows and any(map(_fields, lines[rows + 1 :])):
            raise FormatError("trailing content after matrix rows", rows + 2)
        values = np.zeros((rows, cols), dtype=_NUMPY_DTYPE[dtype])
        for r in range(rows):
            values[r] = _parse_line(lines, r + 2, cols, None, dtype)
        return DenseMatrix(values, dtype)
    if kind == "CSRv1":
        if len(header) != 5:
            raise FormatError("CSRv1 header needs rows, cols, nnz, dtype", 1)
        rows, cols, nnz = _header_shape(header[1:4])
        dtype = header[4]
        if dtype not in _NUMPY_DTYPE:
            raise FormatError(f"unknown dtype {dtype!r}", 1)
        if len(lines) < 4:
            raise FormatError("truncated CSRv1 file", len(lines))

        indptr = _parse_line(lines, 2, rows + 1, "indptr", "i32")
        indices = _parse_line(lines, 3, nnz, "indices", "i32")
        data = _parse_line(lines, 4, nnz, "data", dtype)
        if any(map(_fields, lines[4:])):
            raise FormatError("trailing content after CSR data", 5)
        try:
            return CsrMatrix(
                rows=rows,
                cols=cols,
                dtype=dtype,
                indptr=indptr,
                indices=indices,
                data=data,
            )
        except ShapeError as exc:
            raise FormatError(f"inconsistent CSR structure: {exc}", 2) from None
    raise FormatError(f"unknown format {kind!r}", 1)
