"""Command-line interface: compute, canonical, search, benchmark, gen-corpus.

Exit codes: 0 success, 1 data error (parse/valence/IO), 2 usage error
(argparse).  The MOLFP_JOBS environment variable supplies the default
worker count wherever a batch runs.  ``main`` reads the .smi input and
maps every MolfpError to exit 1 with ``file:line`` from its record index;
raise mode stops at the first bad record.  Integer options are ASCII.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass

from .engine import BatchOptions, Fingerprinter, benchmark, transform_batch
from .errors import FormatError, MolfpError, run_records
from .corpus import synthetic_smiles
from .fingerprints import FAMILY_ROWS, FingerprintConfig
from .matrix import serialize
from .similarity import bulk_top_k
from .smiles import from_smiles, write_canonical_smiles

_FAMILY_CHOICES = {family.replace("_", "-"): family for family in FAMILY_ROWS}


@dataclass(frozen=True)
class SmiRecord:
    smiles: str
    name: str | None
    line_number: int


def read_smi(path: str) -> list[SmiRecord]:
    """Read the .smi record grammar: one record per line, '#' lines and
    blank lines skipped, first whitespace splits SMILES from name.  A
    line that is not UTF-8 raises FormatError with its line number."""
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise FormatError("not UTF-8 text", lineno) from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            name = parts[1] if len(parts) > 1 else None
            records.append(SmiRecord(parts[0], name, lineno))
    return records


def _int_arg(value: str) -> int:
    """An ASCII integer, else ValueError: int() alone also reads "١"."""
    if not value.isascii():
        raise ValueError(f"not an ASCII integer: {value!r}")
    return int(value)


_int_arg.__name__ = "int"  # argparse's usage error: "invalid int value: 'x'"


def _jobs_arg(value: str):
    """A worker count: "auto" or a positive ASCII integer, else ValueError."""
    if value == "auto":
        return "auto"
    jobs = _int_arg(value)
    if jobs < 1:
        raise ValueError(f"not a positive worker count: {value!r}")
    return jobs


def _add_fingerprint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fingerprint", required=True, choices=sorted(_FAMILY_CHOICES))
    p.add_argument("--length", type=_int_arg, default=2048)
    p.add_argument("--radius", type=_int_arg, default=2)
    p.add_argument("--min-path", type=_int_arg, default=1)
    p.add_argument("--max-path", type=_int_arg, default=7)
    p.add_argument("--distance-cap", type=_int_arg, default=30)
    p.add_argument("--variant", choices=["binary", "count"], default="binary")
    p.add_argument("--key-set", default=None, help="substructure key file")


def _build_fingerprinter(args) -> Fingerprinter:
    return Fingerprinter(FingerprintConfig(
        family=_FAMILY_CHOICES[args.fingerprint],
        length=args.length,
        radius=args.radius,
        min_path=args.min_path,
        max_path=args.max_path,
        distance_cap=args.distance_cap,
        variant=args.variant,
        key_set_path=args.key_set,
    ))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _failure_location(path: str, records: list[SmiRecord], exc: MolfpError) -> str:
    if isinstance(exc, FormatError):
        return f"{path}:{exc.line}: {exc.message}"
    idx = getattr(exc, "record_index", None)
    if idx is not None and 0 <= idx < len(records):
        return f"{path}:{records[idx].line_number}: {exc}"
    return f"{path}: {exc}"


def _write_errors_tsv(args, records: list[SmiRecord], failures) -> None:
    if args.on_error == "skip":
        with open(f"{args.outfile}.errors.tsv", "w") as f:
            f.write("index\tline\terror\n")
            for idx, kind, message in failures:
                f.write(f"{idx}\t{records[idx].line_number}\t{kind}: {message}\n")


def cmd_compute(args, records: list[SmiRecord]) -> int:
    fp = _build_fingerprinter(args)
    opts = BatchOptions(jobs=args.jobs, chunk_size=args.chunk_size, error_mode=args.on_error)
    matrix, report = transform_batch([r.smiles for r in records], fp, opts, output=args.output)
    with open(args.outfile, "w") as f:
        serialize(matrix, f)
    _write_errors_tsv(args, records, report.failures)
    return 0


def cmd_canonical(args, records: list[SmiRecord]) -> int:
    def canonical_line(rec: SmiRecord) -> str:
        text = write_canonical_smiles(from_smiles(rec.smiles))
        return f"{text} {rec.name}" if rec.name else text

    lines, failures = run_records(canonical_line, records, 0, args.on_error)
    with open(args.outfile, "w") as f:
        for line in lines:
            f.write(line + "\n")
    _write_errors_tsv(args, records, failures)
    return 0


def cmd_search(args, records: list[SmiRecord]) -> int:
    fp = _build_fingerprinter(args)
    query, failures = run_records(fp.transform_one, [args.query], 0, "skip")
    if failures:
        return _fail(f"query {args.query!r}: {failures[0][2]}")
    opts = BatchOptions(jobs=args.jobs)
    db, _ = transform_batch([r.smiles for r in records], fp, opts, output="sparse")
    print("rank\tline\tname\tscore")
    for rank, hit in enumerate(bulk_top_k(query[0], db, args.top_k, args.metric), start=1):
        rec = records[hit.row]
        print(f"{rank}\t{rec.line_number}\t{rec.name or ''}\t{hit.score:.6f}")
    return 0


def cmd_benchmark(args, records: list[SmiRecord]) -> int:
    fp = _build_fingerprinter(args)
    try:
        jobs_list = [_int_arg(x) for x in args.jobs_list.split(",") if x.strip()]
    except ValueError:
        return _fail(f"bad --jobs-list {args.jobs_list!r}")
    rows = benchmark([r.smiles for r in records], fp, jobs_list, repeats=args.repeats)
    print("jobs\tmean_seconds\tspeedup")
    for row in rows:
        print(f"{row.jobs}\t{row.mean_seconds:.6f}\t{row.speedup:.3f}")
    return 0


def cmd_gen_corpus(args, records: list[SmiRecord]) -> int:
    with open(args.outfile, "w") as f:
        for i, smi in enumerate(synthetic_smiles(args.count, args.seed)):
            f.write(f"{smi} synth-{i}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="molfp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="fingerprint a .smi file into a matrix file")
    p.add_argument("input")
    p.add_argument("outfile")
    _add_fingerprint_args(p)
    p.add_argument("--output", choices=["dense", "sparse"], default="dense")
    p.add_argument("--jobs", type=_jobs_arg, default=None)
    p.add_argument("--chunk-size", type=_int_arg, default=None)
    p.add_argument("--on-error", choices=["raise", "skip"], default="raise")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("canonical", help="canonicalize a .smi file")
    p.add_argument("input")
    p.add_argument("outfile")
    p.add_argument("--on-error", choices=["raise", "skip"], default="raise")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("search", help="top-k similarity search in a .smi database")
    p.add_argument("query")
    p.add_argument("input", metavar="database")
    _add_fingerprint_args(p)
    p.add_argument("--metric", choices=["tanimoto", "dice"], default="tanimoto")
    p.add_argument("--top-k", type=_int_arg, default=10)
    p.set_defaults(func=cmd_search, jobs=None)

    p = sub.add_parser("benchmark", help="wall-clock speedup table")
    p.add_argument("input")
    _add_fingerprint_args(p)
    p.add_argument("--jobs-list", default="1,2,4")
    p.add_argument("--repeats", type=_int_arg, default=3)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("gen-corpus", help="write a synthetic .smi corpus")
    p.add_argument("outfile")
    p.add_argument("--count", type=_int_arg, default=1000)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes milliseconds
    and leaves reference cycles for the garbage collector."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "jobs", 0) is None:  # compute or search without --jobs
        env = os.environ.get("MOLFP_JOBS", "1")
        try:
            args.jobs = _jobs_arg(env)
        except ValueError:
            message = f"MOLFP_JOBS must be a positive integer or 'auto', got {env!r}"
            print(f"error: {message}", file=sys.stderr)
            return 2
    path = getattr(args, "input", None)
    records: list[SmiRecord] = []
    try:
        if path is not None:
            records = read_smi(path)
        return args.func(args, records)
    except MolfpError as exc:
        return _fail(_failure_location(path, records, exc))
    except OSError as exc:
        return _fail(str(exc))


def run() -> None:
    sys.exit(main())
