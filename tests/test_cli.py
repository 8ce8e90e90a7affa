"""CLI subcommands, exit codes, file formats."""

from __future__ import annotations

import gc

import pytest

from molfp import (
    BatchOptions,
    FingerprintConfig,
    Fingerprinter,
    FormatError,
    RingClosureOverflowError,
    bulk_top_k,
    deserialize,
    from_smiles,
    transform_batch,
    write_canonical_smiles,
)
from molfp.cli import main, read_smi

from .oracles import are_isomorphic


@pytest.fixture()
def smi_file(tmp_path):
    path = tmp_path / "in.smi"
    path.write_text(
        "# comment line\n"
        "CCO ethanol\n"
        "\n"
        "c1ccccc1 benzene\n"
        "CC(=O)O acetic-acid\n"
    )
    return path


def load(path):
    with open(path) as f:
        return deserialize(f)


class TestSmiGrammar:
    def test_records(self, smi_file):
        records = read_smi(smi_file)
        assert [(r.smiles, r.name, r.line_number) for r in records] == [
            ("CCO", "ethanol", 2),
            ("c1ccccc1", "benzene", 4),
            ("CC(=O)O", "acetic-acid", 5),
        ]

    def test_name_optional(self, tmp_path):
        p = tmp_path / "x.smi"
        p.write_text("CCO\nCC name with  spaces\n")
        records = read_smi(p)
        assert records[0].name is None
        assert records[1].name == "name with  spaces"

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "crlf.smi"
        p.write_bytes(b"CCO ethanol\r\nc1ccccc1 benzene\r\n")
        records = read_smi(p)
        assert [(r.smiles, r.name) for r in records] == [
            ("CCO", "ethanol"),
            ("c1ccccc1", "benzene"),
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "{smi}", "{out}", "--fingerprint", "ecfp"],
            ["canonical", "{smi}", "{out}"],
            ["search", "CCO", "{smi}", "--fingerprint", "ecfp"],
            ["benchmark", "{smi}", "--fingerprint", "ecfp", "--repeats", "1"],
        ],
    )
    def test_undecodable_line_cites_line(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.smi"
        bad.write_bytes(b"CCO ok\n\xff\xfeCC bad\n")
        with pytest.raises(FormatError) as exc:
            read_smi(bad)
        assert exc.value.line == 2
        argv = [a.format(smi=bad, out=tmp_path / "out") for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")


class TestCompute:
    def test_dense_shape(self, smi_file, tmp_path):
        out = tmp_path / "out.mat"
        code = main(
            ["compute", str(smi_file), str(out), "--fingerprint", "ecfp"]
        )
        assert code == 0
        mat = load(out)
        assert mat.rows == 3 and mat.cols == 2048
        assert open(out).read().endswith("\n")

    def test_jobs_byte_identical(self, smi_file, tmp_path):
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"out{jobs}.mat"
            assert (
                main(
                    [
                        "compute",
                        str(smi_file),
                        str(out),
                        "--fingerprint",
                        "atom-pair",
                        "--variant",
                        "count",
                        "--jobs",
                        jobs,
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sparse_output(self, smi_file, tmp_path):
        out = tmp_path / "out.mat"
        assert (
            main(
                [
                    "compute",
                    str(smi_file),
                    str(out),
                    "--fingerprint",
                    "ecfp",
                    "--output",
                    "sparse",
                ]
            )
            == 0
        )
        assert out.read_text().startswith("CSRv1 3 2048 ")

    def test_invalid_record_raise_mode(self, tmp_path, capsys):
        bad = tmp_path / "bad.smi"
        bad.write_text("CCO fine\n[H]=[H] impossible\n")
        out = tmp_path / "out.mat"
        code = main(["compute", str(bad), str(out), "--fingerprint", "ecfp"])
        assert code == 1
        message = capsys.readouterr().err
        assert f"{bad}:2:" in message

    def test_skip_mode_writes_errors_tsv(self, tmp_path):
        bad = tmp_path / "bad.smi"
        bad.write_text("CCO fine\n[H]=[H] impossible\nCC ok\n")
        out = tmp_path / "out.mat"
        code = main(
            [
                "compute",
                str(bad),
                str(out),
                "--fingerprint",
                "ecfp",
                "--on-error",
                "skip",
            ]
        )
        assert code == 0
        assert load(out).rows == 2
        lines = (tmp_path / "out.mat.errors.tsv").read_text().splitlines()
        assert lines[0] == "index\tline\terror"
        assert lines[1].startswith("1\t2\tValenceError")

    def test_all_records_fail_in_skip_mode(self, tmp_path):
        bad = tmp_path / "bad.smi"
        bad.write_text("[H]=[H] a\nC1CC b\n")
        out = tmp_path / "out.mat"
        code = main(
            [
                "compute",
                str(bad),
                str(out),
                "--fingerprint",
                "ecfp",
                "--on-error",
                "skip",
            ]
        )
        assert code == 0
        assert load(out).rows == 0
        lines = (tmp_path / "out.mat.errors.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + two failures

    def test_missing_input_file(self, tmp_path):
        assert (
            main(
                [
                    "compute",
                    str(tmp_path / "absent.smi"),
                    str(tmp_path / "o"),
                    "--fingerprint",
                    "ecfp",
                ]
            )
            == 1
        )

    def test_non_ascii_digit_in_key_file_exits_1(self, smi_file, tmp_path, capsys):
        keys = tmp_path / "keys.smarts"
        keys.write_text("K1\t[#²]\tbad\n", encoding="utf-8")
        argv = ["compute", str(smi_file), str(tmp_path / "o.mat"), "--fingerprint",
                "substructure", "--key-set", str(keys)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{keys}:1: bad SMARTS '[#²]'" in err

    def test_usage_error_exit_2(self, smi_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(smi_file), str(tmp_path / "o"), "--fingerprint", "bogus"])
        assert exc.value.code == 2
        for jobs in ("0", "١"):
            with pytest.raises(SystemExit) as exc:
                main(["compute", str(smi_file), str(tmp_path / "o"), "--fingerprint", "ecfp",
                      "--jobs", jobs])
            assert exc.value.code == 2
        # int() would read these Arabic-Indic digits as 16 and 1.
        for argv in (
            ["compute", str(smi_file), str(tmp_path / "o"), "--fingerprint", "ecfp",
             "--length", "١٦"],
            ["search", "CCO", str(smi_file), "--fingerprint", "ecfp", "--top-k", "١"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_substructure_and_descriptors(self, smi_file, tmp_path):
        for fam, cols in (("substructure", 48), ("descriptors", 10)):
            out = tmp_path / f"{fam}.mat"
            assert (
                main(["compute", str(smi_file), str(out), "--fingerprint", fam]) == 0
            )
            assert load(out).cols == cols

    def test_env_jobs_default(self, smi_file, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLFP_JOBS", "2")
        out = tmp_path / "out.mat"
        assert main(["compute", str(smi_file), str(out), "--fingerprint", "ecfp"]) == 0

    @pytest.mark.parametrize("value", ["abc", "0", "١"])
    def test_invalid_env_jobs_is_usage_error(self, smi_file, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("MOLFP_JOBS", value)
        out = tmp_path / "out.mat"
        for argv in (
            ["compute", str(smi_file), str(out), "--fingerprint", "ecfp"],
            ["search", "CCO", str(smi_file), "--fingerprint", "ecfp"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "MOLFP_JOBS" in err[0]
        # An explicit --jobs wins, and commands without a batch ignore it.
        argv = ["compute", str(smi_file), str(out), "--fingerprint", "ecfp", "--jobs", "1"]
        assert main(argv) == 0
        assert main(["canonical", str(smi_file), str(tmp_path / "c.smi")]) == 0
        assert main(["gen-corpus", str(tmp_path / "g.smi"), "--count", "3"]) == 0


class TestCanonical:
    def test_same_molecule_same_line(self, tmp_path):
        src = tmp_path / "in.smi"
        src.write_text("OCC a\nCCO b\n")
        out = tmp_path / "out.smi"
        assert main(["canonical", str(src), str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split()[0] == lines[1].split()[0]
        assert lines[0].endswith(" a") and lines[1].endswith(" b")

    def test_idempotent(self, smi_file, tmp_path):
        out1 = tmp_path / "c1.smi"
        out2 = tmp_path / "c2.smi"
        assert main(["canonical", str(smi_file), str(out1)]) == 0
        assert main(["canonical", str(out1), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_skip_logs_invalid(self, tmp_path):
        src = tmp_path / "in.smi"
        src.write_text("CCO\n[H]=[H]\nCC\n")
        out = tmp_path / "out.smi"
        assert main(["canonical", str(src), str(out), "--on-error", "skip"]) == 0
        assert len(out.read_text().splitlines()) == 2
        errors = (tmp_path / "out.smi.errors.tsv").read_text().splitlines()
        assert len(errors) == 2  # header + one failure

    def test_raise_mode_cites_line(self, tmp_path, capsys):
        src = tmp_path / "in.smi"
        src.write_text("CCO\nC1CC\n")
        assert main(["canonical", str(src), str(tmp_path / "o.smi")]) == 1
        assert f"{src}:2:" in capsys.readouterr().err


def spoked_wheel_smiles(spokes: int) -> str:
    """A silicon hub bonded to every atom of a carbon rim (0 < spokes <= 100):
    the hub's bonds are ring closures open at once."""
    ring = [str(n) if n < 10 else f"%{n:02d}" for n in range(1, spokes)]
    return "C0([Si]" + "".join(ring) + ")" + "C".join(["", *ring]) + "0"


class TestCanonicalRingClosures:
    # A chain of 100 cyclopropanes: 100 closures in all, one open at a time.
    CHAIN = "C1CC1" * 100

    def test_wheel_parses(self):
        mol = from_smiles(spoked_wheel_smiles(100))
        assert mol.n_atoms == 101
        assert sorted(a.degree for a in mol.atoms)[-2:] == [3, 100]

    def test_numbers_reused_past_99(self):
        mol = from_smiles(self.CHAIN)
        canon = write_canonical_smiles(mol)
        back = from_smiles(canon)
        assert are_isomorphic(mol, back)
        assert write_canonical_smiles(back) == canon

    def test_99_open_closures_written(self):
        mol = from_smiles(spoked_wheel_smiles(99))
        assert are_isomorphic(mol, from_smiles(write_canonical_smiles(mol)))

    def test_100_open_closures_raise(self):
        with pytest.raises(RingClosureOverflowError):
            write_canonical_smiles(from_smiles(spoked_wheel_smiles(100)))

    def test_skip_lists_overflow(self, tmp_path):
        src = tmp_path / "in.smi"
        src.write_text(f"CCO a\n{spoked_wheel_smiles(100)} wheel\n{self.CHAIN} chain\n")
        out = tmp_path / "out.smi"
        assert main(["canonical", str(src), str(out), "--on-error", "skip"]) == 0
        lines = out.read_text().splitlines()
        assert [line.split()[1] for line in lines] == ["a", "chain"]
        errors = (tmp_path / "out.smi.errors.tsv").read_text().splitlines()
        assert errors[1:] == [
            "1\t2\tRingClosureOverflowError: more than 99 ring closures open at once"
        ]

    def test_raise_cites_line(self, tmp_path, capsys):
        src = tmp_path / "in.smi"
        src.write_text(f"CCO a\n{self.CHAIN}\n{spoked_wheel_smiles(100)} wheel\n")
        assert main(["canonical", str(src), str(tmp_path / "o.smi")]) == 1
        assert f"{src}:3: more than 99 ring closures open at once" in capsys.readouterr().err

    def test_unexpected_exception_is_a_record_error(self, tmp_path, monkeypatch, capsys):
        import molfp.cli

        def writer(mol):
            if mol.n_atoms == 2:
                raise RuntimeError("writer bug")
            return write_canonical_smiles(mol)

        monkeypatch.setattr(molfp.cli, "write_canonical_smiles", writer)
        src = tmp_path / "in.smi"
        src.write_text("CCO\nCC\nCCC\n")
        out = tmp_path / "out.smi"
        assert main(["canonical", str(src), str(out), "--on-error", "skip"]) == 0
        assert out.read_text().splitlines() == ["CCO", "CCC"]
        errors = (tmp_path / "out.smi.errors.tsv").read_text().splitlines()
        assert errors[1:] == ["1\t2\tRecordError: RuntimeError: writer bug"]
        assert main(["canonical", str(src), str(out)]) == 1
        assert f"{src}:2: RuntimeError: writer bug" in capsys.readouterr().err


class TestSearch:
    def test_identical_record_ranks_first(self, smi_file, capsys):
        code = main(
            [
                "search",
                "CCO",
                str(smi_file),
                "--fingerprint",
                "ecfp",
                "--top-k",
                "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tline\tname\tscore"
        rank1 = lines[1].split("\t")
        assert rank1 == ["1", "2", "ethanol", "1.000000"]

    def test_k_larger_than_database(self, smi_file, capsys):
        assert (
            main(
                [
                    "search",
                    "CCO",
                    str(smi_file),
                    "--fingerprint",
                    "ecfp",
                    "--top-k",
                    "50",
                ]
            )
            == 0
        )
        assert len(capsys.readouterr().out.splitlines()) == 4  # header + 3 rows

    def test_matches_library_bulk_top_k(self, smi_file, capsys):
        assert (
            main(
                [
                    "search",
                    "c1ccccc1O",
                    str(smi_file),
                    "--fingerprint",
                    "path",
                    "--metric",
                    "dice",
                    "--top-k",
                    "3",
                ]
            )
            == 0
        )
        out_lines = capsys.readouterr().out.splitlines()[1:]

        records = read_smi(smi_file)
        fp = Fingerprinter(FingerprintConfig(family="path"))
        db, _ = transform_batch([r.smiles for r in records], fp, BatchOptions(), output="sparse")
        query = fp.transform_one("c1ccccc1O")
        hits = bulk_top_k(query, db, 3, "dice")
        for line, hit in zip(out_lines, hits):
            rank, lineno, name, score = line.split("\t")
            assert int(lineno) == records[hit.row].line_number
            assert float(score) == pytest.approx(hit.score, abs=5e-7)

    def test_bad_query_exits_1(self, smi_file, capsys):
        assert (
            main(["search", "C1CC", str(smi_file), "--fingerprint", "ecfp"]) == 1
        )
        err = capsys.readouterr().err
        assert err == "error: query 'C1CC': ring closure 1 never matched (at position 1)\n"
        assert str(smi_file) not in err


class TestBenchmarkCmd:
    def test_single_row(self, smi_file, capsys):
        code = main(
            [
                "benchmark",
                str(smi_file),
                "--fingerprint",
                "ecfp",
                "--jobs-list",
                "1",
                "--repeats",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "jobs\tmean_seconds\tspeedup"
        assert lines[1].split("\t")[0] == "1"
        assert lines[1].split("\t")[2] == "1.000"

    def test_three_rows_monotone_jobs(self, smi_file, capsys):
        code = main(
            [
                "benchmark",
                str(smi_file),
                "--fingerprint",
                "ecfp",
                "--jobs-list",
                "1,2,3",
                "--repeats",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [int(l.split("\t")[0]) for l in lines] == [1, 2, 3]

    def test_bad_jobs_list(self, smi_file):
        for jobs_list in ("1,x", "١"):
            assert (
                main(
                    [
                        "benchmark",
                        str(smi_file),
                        "--fingerprint",
                        "ecfp",
                        "--jobs-list",
                        jobs_list,
                    ]
                )
                == 1
            )


class TestGenCorpus:
    def test_deterministic_and_valid(self, tmp_path):
        a = tmp_path / "a.smi"
        b = tmp_path / "b.smi"
        assert main(["gen-corpus", str(a), "--count", "50", "--seed", "9"]) == 0
        assert main(["gen-corpus", str(b), "--count", "50", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()
        from molfp import from_smiles

        for rec in read_smi(a):
            from_smiles(rec.smiles)

    def test_feeds_compute(self, tmp_path):
        src = tmp_path / "c.smi"
        out = tmp_path / "c.mat"
        assert main(["gen-corpus", str(src), "--count", "10"]) == 0
        assert main(["compute", str(src), str(out), "--fingerprint", "fcfp"]) == 0
        assert load(out).rows == 10

    def test_repeat_call_leaves_no_cyclic_garbage(self, tmp_path):
        argv = ["gen-corpus", str(tmp_path / "c.smi"), "--count", "5", "--seed", "1"]
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
