"""Batch execution, chunking, composition, benchmark table."""

from __future__ import annotations

import io
import pickle
import time

import numpy as np
import pytest

from molfp import (
    BatchOptions,
    CompositionError,
    ConfigError,
    FingerprintConfig,
    Fingerprinter,
    FormatError,
    Molecule,
    RecordError,
    ShapeError,
    SmilesParser,
    UnclosedRingError,
    ValenceError,
    benchmark,
    descriptors,
    from_rows,
    from_smiles,
    pipeline,
    serialize,
    transform_batch,
    union,
)
from molfp.engine import chunk_spans


def text_of(matrix) -> str:
    buf = io.StringIO()
    serialize(matrix, buf)
    return buf.getvalue()


def ecfp_t(**kw) -> Fingerprinter:
    return Fingerprinter(FingerprintConfig(family="ecfp", **kw))


class FailsOn(Fingerprinter):
    """ecfp, except that one record raises an exception outside the
    MolfpError hierarchy (module level, so workers can unpickle it)."""

    def __init__(self, bad: str):
        super().__init__(FingerprintConfig(family="ecfp", length=64))
        self.bad = bad

    def transform_one(self, record):
        if record == self.bad:
            raise RuntimeError("transformer bug")
        return super().transform_one(record)


class SlowLogging(Fingerprinter):
    """ecfp that appends each record to a log file, then sleeps 20 ms
    (module level, so workers can unpickle it)."""

    def __init__(self, log):
        super().__init__(FingerprintConfig(family="ecfp", length=64))
        self.log = log

    def transform_one(self, record):
        with open(self.log, "a") as f:
            f.write(f"{record}\n")
        time.sleep(0.02)
        return super().transform_one(record)


class TypeLogging(Fingerprinter):
    """ecfp that appends the type of each record it receives to a list."""

    def __init__(self, seen: list, length: int):
        super().__init__(FingerprintConfig(family="ecfp", length=length))
        self.seen = seen

    def transform_one(self, record):
        self.seen.append(type(record))
        return super().transform_one(record)


class TestChunking:
    def test_balanced_split_example(self):
        spans = chunk_spans(10, 4)
        sizes = [e - s for s, e in spans]
        assert sizes == [3, 3, 2, 2]

    def test_sizes_sum_and_balance(self):
        for n in (1, 2, 7, 100, 101):
            for jobs in (1, 2, 3, 8, 200):
                spans = chunk_spans(n, jobs)
                sizes = [e - s for s, e in spans]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert all(size > 0 for size in sizes)

    def test_explicit_chunk_size(self):
        spans = chunk_spans(10, 4, chunk_size=4)
        assert spans == [(0, 4), (4, 8), (8, 10)]

    def test_empty_input(self):
        assert chunk_spans(0, 4) == []


class TestTransformBatch:
    def test_jobs_determinism(self, corpus1000):
        smis = corpus1000[:200]
        fp = ecfp_t(length=256, variant="count")
        texts = {
            jobs: text_of(transform_batch(smis, fp, BatchOptions(jobs=jobs))[0])
            for jobs in (1, 2, 4)
        }
        assert texts[1] == texts[2] == texts[4]

    def test_skip_mode_indices(self):
        smis = ["CCO", "[H]=[H]", "CC", "C1CC", "c1ccccc1"]
        fp = ecfp_t(length=64)
        mat, report = transform_batch(
            smis, fp, BatchOptions(jobs=2, error_mode="skip")
        )
        assert mat.rows == 3
        assert report.n_input == 5 and report.n_ok == 3
        assert [f[0] for f in report.failures] == [1, 3]
        assert report.failures[0][1] == "ValenceError"
        assert report.failures[1][1] == "UnclosedRingError"

    def test_skip_preserves_survivor_order(self, corpus1000):
        smis = list(corpus1000[:20])
        smis.insert(5, "[H]=[H]")
        fp = ecfp_t(length=128)
        with_bad, _ = transform_batch(smis, fp, BatchOptions(error_mode="skip"))
        without, _ = transform_batch(
            [s for s in smis if s != "[H]=[H]"], fp, BatchOptions()
        )
        assert np.array_equal(with_bad.values, without.values)

    def test_raise_mode_propagates_first_failure(self):
        smis = ["CCO", "CC", "[H]=[H]", "C1CC"]
        fp = ecfp_t()
        with pytest.raises(ValenceError) as exc:
            transform_batch(smis, fp, BatchOptions(jobs=2))
        assert exc.value.record_index == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_skipped(self, jobs):
        smis = ["CCO", "CC", "CCN", "c1ccccc1"]
        mat, report = transform_batch(
            smis, FailsOn("CCN"), BatchOptions(jobs=jobs, error_mode="skip")
        )
        assert mat.rows == 3 and report.n_ok == 3
        assert report.failures == ((2, "RecordError", "RuntimeError: transformer bug"),)
        expected, _ = transform_batch(["CCO", "CC", "c1ccccc1"], ecfp_t(length=64), BatchOptions())
        assert np.array_equal(mat.values, expected.values)

    def test_parse_error_index_survives_the_pool(self):
        smis = ["CCO", "CC", "CCN", "C1CC"]
        with pytest.raises(UnclosedRingError) as exc:
            transform_batch(smis, ecfp_t(), BatchOptions(jobs=2))
        assert exc.value.record_index == 3 and exc.value.position == 1
        for error in (UnclosedRingError("ring closure 1 never matched", 1), FormatError("x", 4)):
            error.record_index = 7
            clone = pickle.loads(pickle.dumps(error))
            assert (str(clone), clone.record_index) == (str(error), 7)

    def test_raise_stops_at_first_bad_record(self):
        seen = []

        class Recording(Fingerprinter):
            def transform_one(self, record):
                seen.append(record)
                return super().transform_one(record)

        fp = Recording(FingerprintConfig(family="ecfp", length=64))
        with pytest.raises(ValenceError):
            transform_batch(["CC", "[H]=[H]", "CCO", "CCN"], fp, BatchOptions(chunk_size=2))
        assert seen == ["CC", "[H]=[H]"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_raised(self, jobs):
        smis = ["CCO", "CC", "CCN", "c1ccccc1"]
        with pytest.raises(RecordError) as exc:
            transform_batch(smis, FailsOn("CCN"), BatchOptions(jobs=jobs))
        assert exc.value.record_index == 2
        assert str(exc.value) == "RuntimeError: transformer bug"

    def test_molecule_inputs_accepted(self):
        mols = [from_smiles("CCO"), from_smiles("CC")]
        fp = ecfp_t(length=64)
        m1, _ = transform_batch(mols, fp, BatchOptions())
        m2, _ = transform_batch(["CCO", "CC"], fp, BatchOptions())
        assert np.array_equal(m1.values, m2.values)

    def test_output_override(self, corpus1000):
        fp = ecfp_t(length=128)
        dense, _ = transform_batch(corpus1000[:10], fp, BatchOptions())
        sparse, _ = transform_batch(
            corpus1000[:10], fp, BatchOptions(), output="sparse"
        )
        from molfp import to_dense

        assert np.array_equal(to_dense(sparse).values, dense.values)

    def test_unknown_output_form_rejected(self):
        fp = ecfp_t(length=64)
        with pytest.raises(ConfigError, match="unknown output form 'csr'"):
            transform_batch(["CCO"], fp, BatchOptions(), output="csr")
        with pytest.raises(ShapeError, match="unknown output form 'csr'"):
            from_rows([fp.transform_one("CCO")], "csr")
        with pytest.raises(TypeError):
            FingerprintConfig(family="ecfp", output="sparse")

    def test_raise_cancels_queued_chunks(self, tmp_path):
        log = tmp_path / "seen.txt"
        smis = ["C1CC"] + ["CCO"] * 79
        with pytest.raises(UnclosedRingError) as exc:
            transform_batch(smis, SlowLogging(log), BatchOptions(jobs=2, chunk_size=1))
        assert exc.value.record_index == 0
        assert len(log.read_text().splitlines()) < len(smis) // 2

    def test_empty_key_set_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="non-empty key set"):
            Fingerprinter(FingerprintConfig(family="substructure"), keys=())

    def test_descriptor_rows_are_f64(self):
        fp = Fingerprinter(FingerprintConfig(family="descriptors"))
        mat, _ = transform_batch(["CCO", "c1ccccc1"], fp, BatchOptions())
        assert mat.dtype == "f64" and mat.cols == 10
        assert mat.values[0, 0] == pytest.approx(46.069, abs=0.01)
        for smi in ("CCO", "c1ccccc1", "CC(=O)[O-]"):
            row = fp.transform_one(smi)
            values = descriptors(from_smiles(smi))
            assert row.variant == "real" and row.length == 10
            assert row.entries == {i: v for i, v in enumerate(values) if v != 0}

    def test_bad_options(self):
        fp = ecfp_t()
        with pytest.raises(ConfigError):
            transform_batch(["C"], fp, BatchOptions(jobs=0))
        with pytest.raises(ConfigError):
            transform_batch(["C"], fp, BatchOptions(error_mode="ignore"))
        with pytest.raises(ConfigError):
            transform_batch(["C"], fp, BatchOptions(chunk_size=0))

    @pytest.mark.parametrize(
        "field, value", [("jobs", True), ("chunk_size", 2.5), ("chunk_size", True)]
    )
    def test_integer_options_reject_floats_and_bools(self, field, value):
        opts = BatchOptions(**{field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be a positive integer"):
            opts.validate()
        with pytest.raises(ConfigError, match=f"^{field} "):
            transform_batch(["CCO"], ecfp_t(length=64), opts)

    def test_auto_jobs_resolves(self):
        assert BatchOptions(jobs="auto").resolved_jobs() >= 1

    def test_parser_alone_cannot_batch(self):
        with pytest.raises(CompositionError):
            transform_batch(["C"], SmilesParser(), BatchOptions())

    def test_empty_input_batch(self):
        fp = ecfp_t(length=32)
        mat, report = transform_batch([], fp, BatchOptions(jobs=4))
        assert mat.rows == 0 and mat.cols == 32
        assert report.n_input == 0 and report.n_ok == 0


class TestPipeline:
    def test_matches_manual_composition(self, corpus1000):
        fp = ecfp_t(length=256)
        pipe = pipeline([SmilesParser(), fp])
        for smi in corpus1000[:20]:
            assert pipe.transform_one(smi).entries == fp.transform_one(
                from_smiles(smi)
            ).entries

    def test_empty_rejected(self):
        with pytest.raises(CompositionError):
            pipeline([])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(CompositionError):
            pipeline([ecfp_t(), SmilesParser()])

    def test_single_stage_identity(self, corpus1000):
        fp = ecfp_t(length=128)
        pipe = pipeline([fp])
        m1, _ = transform_batch(corpus1000[:10], pipe, BatchOptions())
        m2, _ = transform_batch(corpus1000[:10], fp, BatchOptions())
        assert np.array_equal(m1.values, m2.values)

    def test_three_stage_associativity(self, corpus1000):
        fp = ecfp_t(length=128)
        left = pipeline([pipeline([SmilesParser(), fp])])
        right = pipeline([SmilesParser(), pipeline([fp])])
        m1, _ = transform_batch(corpus1000[:10], left, BatchOptions())
        m2, _ = transform_batch(corpus1000[:10], right, BatchOptions())
        assert np.array_equal(m1.values, m2.values)


class TestUnion:
    def test_width_sum(self):
        sub = Fingerprinter(FingerprintConfig(family="substructure"))
        u = union([ecfp_t(length=1024), sub])
        assert u.n_cols == 1024 + sub.n_cols

    def test_single_branch_identity(self, corpus1000):
        fp = ecfp_t(length=128)
        m1, _ = transform_batch(corpus1000[:10], union([fp]), BatchOptions())
        m2, _ = transform_batch(corpus1000[:10], fp, BatchOptions())
        assert np.array_equal(m1.values, m2.values)

    def test_column_slice_identity(self, corpus1000):
        fp = ecfp_t(length=256)
        sub = Fingerprinter(FingerprintConfig(family="substructure"))
        u = union([fp, sub])
        mu, _ = transform_batch(corpus1000[:15], u, BatchOptions(jobs=2))
        me, _ = transform_batch(corpus1000[:15], fp, BatchOptions())
        ms, _ = transform_batch(corpus1000[:15], sub, BatchOptions())
        assert np.array_equal(mu.values[:, :256], me.values)
        assert np.array_equal(mu.values[:, 256:], ms.values)

    def test_empty_rejected(self):
        with pytest.raises(CompositionError):
            union([])

    def test_mixed_input_kinds_rejected(self):
        text_branch = pipeline([SmilesParser(), ecfp_t()])
        with pytest.raises(CompositionError):
            union([text_branch, ecfp_t()])

    def test_non_vector_branch_rejected(self):
        with pytest.raises(CompositionError):
            union([SmilesParser()])

    def test_descriptor_union_promotes_to_f64(self, corpus1000):
        u = union([ecfp_t(length=32), Fingerprinter(FingerprintConfig(family="descriptors"))])
        mat, _ = transform_batch(corpus1000[:5], u, BatchOptions())
        assert mat.dtype == "f64" and mat.cols == 42
        row = u.transform_one(corpus1000[0])
        assert row.variant == "real" and row.length == 42
        assert union([ecfp_t(), ecfp_t(variant="count")]).transform_one("CCO").variant == "count"

    @pytest.mark.parametrize("output", ["dense", "sparse"])
    def test_count_and_descriptor_union_same_bytes_in_chunks(self, corpus1000, output):
        descriptor_t = Fingerprinter(FingerprintConfig(family="descriptors"))
        u = union([ecfp_t(length=64, variant="count"), descriptor_t])
        good = list(corpus1000[:7])
        # With chunk_size=2 the chunk of records 2 and 3 has no row.
        mixed = good[:2] + ["C1CC", "[H]=[H]"] + good[2:] + ["C(C"]
        m1, _ = transform_batch(good, u, BatchOptions(jobs=1), output=output)
        m2, report = transform_batch(
            mixed, u, BatchOptions(jobs=2, chunk_size=2, error_mode="skip"), output=output
        )
        assert [f[0] for f in report.failures] == [2, 3, 9]
        assert text_of(m1) == text_of(m2)
        assert text_of(m1).startswith("DENSEv1" if output == "dense" else "CSRv1")

    def test_text_record_parsed_once_for_all_branches(self):
        seen: list = []
        u = union([TypeLogging(seen, 64), TypeLogging(seen, 32)])
        row = u.transform_one("CCO")
        assert seen == [Molecule, Molecule]
        assert row.entries == union([ecfp_t(length=64), ecfp_t(length=32)]).transform_one(
            from_smiles("CCO")
        ).entries
        with pytest.raises(UnclosedRingError) as alone:
            ecfp_t(length=64).transform_one("C1CC")
        with pytest.raises(UnclosedRingError) as branched:
            u.transform_one("C1CC")
        message = "ring closure 1 never matched (at position 1)"
        assert str(branched.value) == str(alone.value) == message

    def test_in_pipeline(self, corpus1000):
        u = union([ecfp_t(length=64), ecfp_t(length=32)])
        pipe = pipeline([SmilesParser(), u])
        mat, _ = transform_batch(corpus1000[:5], pipe, BatchOptions())
        assert mat.cols == 96

    def test_nested_union_flattens_columns(self, corpus1000):
        a, b = ecfp_t(length=64), ecfp_t(length=32, variant="count")
        nested = union([union([a]), b])
        flat = union([a, b])
        m1, _ = transform_batch(corpus1000[:5], nested, BatchOptions())
        m2, _ = transform_batch(corpus1000[:5], flat, BatchOptions())
        assert np.array_equal(m1.values, m2.values)


class TestBenchmark:
    def test_single_jobs_row(self, corpus1000):
        rows = benchmark(corpus1000[:50], ecfp_t(length=64), [1], repeats=1)
        assert len(rows) == 1
        assert rows[0].jobs == 1 and rows[0].speedup == 1.0

    def test_row_per_requested_value(self, corpus1000):
        rows = benchmark(corpus1000[:50], ecfp_t(length=64), [1, 2], repeats=1)
        assert [r.jobs for r in rows] == [1, 2]
        assert all(r.mean_seconds > 0 for r in rows)

    def test_requires_enough_inputs(self):
        with pytest.raises(ConfigError):
            benchmark(["C"], ecfp_t(), [4], repeats=1)
