"""Stateless transformers, composition, and parallel batch execution.

The engine owns all parallelism: inputs are split into contiguous
chunks (by default one per worker), scattered to a process pool, and
the per-chunk CSR row blocks are concatenated in input order.  Workers
share nothing mutable, so results are byte-identical to a sequential
run regardless of the worker count.  ``transform_batch``'s ``output``
alone chooses the matrix form: the stacked CSR matrix or its dense copy.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .chem import Molecule
from .errors import CompositionError, ConfigError, run_records
from .fingerprints import (
    FAMILY_ROWS,
    N_DESCRIPTORS,
    VARIANT_DTYPES,
    FingerprintConfig,
    FingerprintVector,
    resolve_keys,
)
from .matrix import Matrix, from_entry_rows, to_dense, vstack
from .smarts import SmartsKey
from .smiles import from_smiles


class SmilesParser:
    """Text-to-molecule stage: parse and sanitize."""

    input_kind = "text"
    output_kind = "molecule"

    def transform_one(self, record) -> Molecule:
        return record if isinstance(record, Molecule) else from_smiles(record)


class Fingerprinter:
    """Molecule-to-vector stage for one fingerprint family.

    Accepts raw SMILES records as well, converting internally, so it can
    be used standalone on string sequences.  The config is validated
    and substructure key sets are loaded and parsed at construction: a
    bad config, key file or empty key set fails here, never mid-batch.
    The family's row function is looked up in FAMILY_ROWS on each call.
    Descriptors come out as a "real" vector without their exact zeros.
    """

    input_kind = "molecule"
    output_kind = "vector"

    def __init__(self, config: FingerprintConfig, keys: tuple[SmartsKey, ...] | None = None):
        config.validate()
        self.config = config
        self.keys = resolve_keys(config, keys)

    @property
    def n_cols(self) -> int:
        if self.config.family == "substructure":
            return len(self.keys)
        if self.config.family == "descriptors":
            return N_DESCRIPTORS
        return self.config.length

    @property
    def variant(self) -> str:
        return "real" if self.config.family == "descriptors" else self.config.variant

    def transform_one(self, record) -> FingerprintVector:
        if isinstance(record, str):
            record = from_smiles(record)
        return FAMILY_ROWS[self.config.family](record, self.config, self.keys)


class Pipeline:
    """Functional composition of stages (text -> molecule -> vector)."""

    def __init__(self, stages: tuple):
        self.stages = stages

    @property
    def input_kind(self) -> str:
        return self.stages[0].input_kind

    @property
    def output_kind(self) -> str:
        return self.stages[-1].output_kind

    @property
    def n_cols(self) -> int:
        return self.stages[-1].n_cols

    @property
    def variant(self) -> str:
        return self.stages[-1].variant

    def transform_one(self, record):
        for stage in self.stages:
            record = stage.transform_one(record)
        return record


class Union:
    """Horizontal concatenation of vector-producing branches."""

    output_kind = "vector"

    def __init__(self, branches: tuple):
        self.branches = branches
        self.n_cols = sum(b.n_cols for b in branches)
        order = list(VARIANT_DTYPES)
        self.variant = max((b.variant for b in branches), key=order.index)

    @property
    def input_kind(self) -> str:
        return self.branches[0].input_kind

    def transform_one(self, record) -> FingerprintVector:
        if isinstance(record, str) and self.input_kind == "molecule":
            record = from_smiles(record)  # once for every branch
        entries: dict[int, float] = {}
        offset = 0
        for branch in self.branches:
            for idx, val in branch.transform_one(record).entries.items():
                entries[offset + idx] = val
            offset += branch.n_cols
        return FingerprintVector(self.n_cols, self.variant, entries)


def pipeline(stages) -> Pipeline:
    """Compose stages; adjacent output/input kinds must line up."""
    stages = tuple(stages)
    if not stages:
        raise CompositionError("pipeline needs at least one stage")
    for a, b in zip(stages, stages[1:]):
        if a.output_kind != b.input_kind:
            raise CompositionError(
                f"stage produces {a.output_kind!r} but next consumes {b.input_kind!r}"
            )
    return Pipeline(stages)


def union(branches) -> Union:
    """Concatenate branch outputs in declaration order."""
    branches = tuple(branches)
    if not branches:
        raise CompositionError("union needs at least one branch")
    kinds = {b.input_kind for b in branches}
    if len(kinds) > 1:
        raise CompositionError(f"union branches consume mixed input kinds: {sorted(kinds)}")
    for b in branches:
        if b.output_kind != "vector":
            raise CompositionError("union branches must produce vectors")
    return Union(branches)


@dataclass(frozen=True)
class BatchOptions:
    """Worker count, chunking, and error policy for one batch run."""

    jobs: int | str = 1
    chunk_size: int | None = None
    error_mode: str = "raise"

    def resolved_jobs(self) -> int:
        if self.jobs == "auto":
            return os.cpu_count() or 1
        if type(self.jobs) is not int or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive integer or 'auto', got {self.jobs!r}")
        return self.jobs

    def validate(self) -> None:
        self.resolved_jobs()
        size = self.chunk_size
        if size is not None and (type(size) is not int or size < 1):
            raise ConfigError(f"chunk_size must be a positive integer, got {size!r}")
        if self.error_mode not in ("raise", "skip"):
            raise ConfigError(f"unknown error_mode {self.error_mode!r}")


@dataclass(frozen=True)
class BatchReport:
    n_input: int
    n_ok: int
    failures: tuple[tuple[int, str, str], ...]  # (record index, error kind, message)


def chunk_spans(n: int, jobs: int, chunk_size: int | None = None) -> list[tuple[int, int]]:
    """Contiguous chunk boundaries.

    Default policy: one chunk per worker with sizes differing by at most
    one.  An explicit chunk_size overrides the count.
    """
    if n == 0:
        return []
    if chunk_size is not None:
        return [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]
    jobs = min(jobs, n)
    base, extra = divmod(n, jobs)
    spans = []
    start = 0
    for k in range(jobs):
        size = base + (1 if k < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def _run_chunk(transformer, records, start: int, error_mode: str):
    """Worker body: returns (CSR block of the chunk's rows, failures).
    In "raise" mode the chunk's first failure propagates instead."""
    rows, failures = run_records(transformer.transform_one, records, start, error_mode)
    # Rows stay whole until assembly: keeping only each row's dict and
    # freeing its vector at once fragments the heap (peak RSS rose by
    # 0.9 MB over the seven families on 600 molecules).
    dtype = VARIANT_DTYPES[transformer.variant]
    block = from_entry_rows((r.entries for r in rows), transformer.n_cols, dtype)
    return block, failures


def transform_batch(
    inputs,
    transformer,
    opts: BatchOptions = BatchOptions(),
    output: str = "dense",
) -> tuple[Matrix, BatchReport]:
    """Run a transformer over a record sequence with chunked workers.

    Output rows keep input order and are byte-identical to a jobs=1 run;
    ``output`` is "dense" or "sparse" (CSR).  error_mode "raise" stops at
    the first bad record and raises its error, whose ``record_index``
    names it, and cancels the chunks still queued; "skip" drops failed
    rows and lists them in the report.  Chunks are collected in input
    order, so the first failing chunk's failure has the smallest index.
    """
    if transformer.output_kind != "vector":
        raise CompositionError("batch output requires a vector-producing transformer")
    if output not in ("dense", "sparse"):
        raise ConfigError(f"unknown output form {output!r}")
    opts.validate()
    inputs = list(inputs)
    jobs = opts.resolved_jobs()
    # An empty input still runs one empty chunk, so it gets its block too.
    spans = chunk_spans(len(inputs), jobs, opts.chunk_size) or [(0, 0)]

    if jobs == 1 or len(spans) <= 1:
        results = [_run_chunk(transformer, inputs[s:e], s, opts.error_mode) for s, e in spans]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
            futures = [
                pool.submit(_run_chunk, transformer, inputs[s:e], s, opts.error_mode)
                for s, e in spans
            ]
            try:
                results = [f.result() for f in futures]
            except BaseException:
                # Leaving the block would wait for every queued chunk.
                pool.shutdown(cancel_futures=True)
                raise

    mat = vstack([block for block, _ in results])
    failures = tuple(f for _, chunk_failures in results for f in chunk_failures)
    report = BatchReport(n_input=len(inputs), n_ok=mat.rows, failures=failures)
    return (to_dense(mat) if output == "dense" else mat), report


@dataclass(frozen=True)
class BenchmarkRow:
    jobs: int
    mean_seconds: float
    speedup: float


def benchmark(
    inputs,
    transformer,
    jobs_list,
    repeats: int = 3,
) -> list[BenchmarkRow]:
    """Wall-clock timing per worker count.

    Each timing is the mean of ``repeats`` runs after one discarded
    warm-up run; speedup is sequential time over parallel time, and
    exactly 1.0 for the jobs=1 row.
    """
    inputs = list(inputs)
    jobs_list = list(jobs_list)
    if repeats < 1:
        raise ConfigError("repeats must be positive")
    if any(j < 1 for j in jobs_list):
        raise ConfigError("jobs values must be positive")
    if jobs_list and len(inputs) < max(jobs_list):
        raise ConfigError("need at least as many inputs as workers")

    def timed(jobs: int) -> float:
        opts = BatchOptions(jobs=jobs)
        transform_batch(inputs, transformer, opts)  # warm-up
        total = 0.0
        for _ in range(repeats):
            t0 = time.perf_counter()
            transform_batch(inputs, transformer, opts)
            total += time.perf_counter() - t0
        return total / repeats

    base = timed(1)
    out = []
    for j in jobs_list:
        if j == 1:
            out.append(BenchmarkRow(1, base, 1.0))
        else:
            t = timed(j)
            out.append(BenchmarkRow(j, t, base / t))
    return out
