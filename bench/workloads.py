"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, runs whole
rounds of the same operations in ``run_round`` and checks the outputs of
the last round in ``check``, after the timed part.  All load comes from
this one process; the only parallelism is molfp's own pool in
``screen``.  Requests are issued by one client in a closed loop.

Every workload reports the same end-to-end metrics, so each defines its
request, the unit that ``query_p50_ms`` and ``query_p90_ms`` time:

* ``featurize_serial``: one SMILES featurized by one family through
  ``Fingerprinter.transform_one``
* ``screen``: one query SMILES parsed, fingerprinted and answered by
  ``bulk_top_k`` (k=10, Tanimoto) against the reloaded library
* ``large_molecules``: one ``molfp`` command on one large molecule
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from molfp import cli, corpus, from_smiles, matrix, similarity
from molfp.engine import BatchOptions, Fingerprinter, transform_batch
from molfp.errors import MolfpError
from molfp.fingerprints import FingerprintConfig

import checks
from molecules import FULL_LADDER, SMOKE_LADDER, large_set, to_smiles

# Family name -> its spelling on the molfp command line.
FAMILIES = {
    "ecfp": "ecfp",
    "fcfp": "fcfp",
    "atom_pair": "atom-pair",
    "topological_torsion": "topological-torsion",
    "path": "path",
    "substructure": "substructure",
    "descriptors": "descriptors",
}
TOP_K = 10

_now = time.perf_counter


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Round:
    seconds: float  # timed span that throughput_mol_s divides by
    molecules: float  # molecules completed in that span
    attempted: int
    failed: int
    latencies_ms: list[float] = field(default_factory=list)


def write_smi(path: Path, smiles: list[str]) -> None:
    with open(path, "w") as f:
        for i, smi in enumerate(smiles):
            f.write(f"{smi} m{i}\n")


def molfp_command(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"molfp {' '.join(map(str, argv))} exited with {code}")


def skipped(outfile: Path) -> int:
    """Records a ``--on-error skip`` command listed as failed."""
    with open(f"{outfile}.errors.tsv") as f:
        return sum(1 for _ in f) - 1


def note_text_bytes(tracer, outfile: Path, rows: int) -> None:
    if tracer is not None:
        tracer.counts["matrix.text_bytes"] += os.path.getsize(outfile)
        tracer.counts["matrix.text_rows"] += rows


class Workload:
    name = ""
    min_rounds = 2

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.dir = workdir

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def run_round(self, tick, tracer=None) -> Round:
        """One round; ``tick()`` is called between operations, outside
        the timed calls, to sample host speed."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def extra_layer_metrics(self) -> dict[str, float]:
        return {}


class FeaturizeSerial(Workload):
    """``molfp compute --jobs 1`` once per family over the seeded corpus,
    then one single-record request per corpus molecule."""

    name = "featurize_serial"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 14 if smoke else 600
        self.smi = workdir / "corpus.smi"

    def setup(self, tracer=None):
        self.smiles = corpus.synthetic_smiles(self.n, self.seed)
        write_smi(self.smi, self.smiles)
        # Families go round-robin over the molecules in order of SMILES
        # length, so each family sees the corpus's spread of sizes and the
        # latency quantiles do not hang on which molecules a family drew.
        by_size = sorted(range(self.n), key=lambda i: (len(self.smiles[i]), i))
        families = list(FAMILIES)
        self.requests = [(i, families[k % len(families)]) for k, i in enumerate(by_size)]
        random.Random(self.seed).shuffle(self.requests)
        self.fingerprinters = {f: Fingerprinter(FingerprintConfig(family=f)) for f in FAMILIES}

    def run_round(self, tick, tracer=None):
        """Each family's ``molfp compute`` pass is followed by a seventh of
        the single-record requests, so that the latencies are sampled
        across the whole run rather than in one stretch per round."""
        seconds = 0.0
        lost = 0
        latencies = []
        self.answers = []
        share = math.ceil(len(self.requests) / len(FAMILIES))
        for k, (family, flag) in enumerate(FAMILIES.items()):
            out = self.dir / f"{family}.csr"
            t0 = _now()
            molfp_command(
                "compute", self.smi, out, "--fingerprint", flag,
                "--jobs", 1, "--output", "sparse", "--on-error", "skip",
            )
            seconds += _now() - t0
            lost_here = skipped(out)
            lost += lost_here
            note_text_bytes(tracer, out, self.n - lost_here)
            tick()
            for j, (i, req_family) in enumerate(self.requests[k * share : (k + 1) * share]):
                if j and j % 50 == 0:
                    tick()
                t0 = _now()
                try:
                    answer = self.fingerprinters[req_family].transform_one(self.smiles[i])
                except MolfpError:
                    answer = None
                else:
                    latencies.append((_now() - t0) * 1e3)
                self.answers.append(answer)
            tick()
        failed = lost + self.answers.count(None)
        attempted = len(FAMILIES) * self.n + len(self.requests)
        return Round(seconds, len(FAMILIES) * self.n - lost, attempted, failed, latencies)

    def check(self):
        rows = {}
        errors = []
        for family in FAMILIES:
            cols, rows[family] = checks.read_csr(self.dir / f"{family}.csr")
            if len(rows[family]) != self.n:
                errors.append(f"{family}: {len(rows[family])} rows for {self.n} records")
        if errors:
            return errors
        # Every single-record answer equals its record's row in the file
        # of its family, whose rows the checks below hold to the oracles.
        for (i, family), answer in zip(self.requests, self.answers):
            if answer is not None and checks.answer_entries(answer) != rows[family][i]:
                errors.append(f"request for record {i}: {family} transform_one differs from its file row")
        mols = [(i, from_smiles(s)) for i, s in enumerate(self.smiles)]
        rng = random.Random(self.seed + 1)
        sample = sorted(rng.sample(mols, min(len(mols), 25)))
        # Brute force is exhaustive, so only molecules of at most 7 atoms;
        # half of them aromatic (lowercase atoms in the SMILES), so the
        # aromatic and ring keys are tried too.
        small = [(i, m) for i, m in mols if m.n_atoms <= 7]
        aromatic = [(i, m) for i, m in small if any(ch in "cnops" for ch in self.smiles[i])]
        plain = [(i, m) for i, m in small if not any(ch in "cnops" for ch in self.smiles[i])]
        small = rng.sample(aromatic, min(4, len(aromatic))) + rng.sample(plain, min(4, len(plain)))
        for family in ("ecfp", "fcfp", "atom_pair", "topological_torsion", "path"):
            errors += checks.check_hashed_rows(family, sample, rows[family], "featurize")
        errors += checks.check_substructure_rows(small, rows["substructure"], "featurize")
        errors += checks.check_descriptor_rows(sample, rows["descriptors"], "featurize")
        if not self.smoke and len(small) < 8:
            errors.append(f"only {len(small)} molecules small enough for the brute-force check")
        return errors


class Screen(Workload):
    """Index a library with the pool, reload it, answer single queries."""

    name = "screen"
    MEMBER_SHARE = 0.7  # not one half, so the median falls inside one group

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.library_size = 80 if smoke else 5_000
        self.queries_per_round = 30 if smoke else 200
        self.min_rounds = max(2, math.ceil((30 if smoke else 1000) / self.queries_per_round))
        self.jobs = usable_cpus()
        self.smi = workdir / "library.smi"
        self.csr = workdir / "library.csr"

    def setup(self, tracer=None):
        self.library = corpus.synthetic_smiles(self.library_size, self.seed)
        write_smi(self.smi, self.library)
        rng = random.Random(self.seed)
        n_members = round(self.MEMBER_SHARE * self.queries_per_round)
        members = [(self.library[i], i) for i in rng.sample(range(self.library_size), n_members)]
        novel = corpus.synthetic_smiles(self.queries_per_round - n_members, self.seed + 1)
        self.queries = members + [(s, None) for s in novel]
        rng.shuffle(self.queries)
        self.fingerprinter = Fingerprinter(FingerprintConfig(family="ecfp"))

    def run_round(self, tick, tracer=None):
        t0 = _now()
        molfp_command(
            "compute", self.smi, self.csr, "--fingerprint", "ecfp",
            "--output", "sparse", "--jobs", self.jobs, "--on-error", "skip",
        )
        with open(self.csr) as f:
            db = matrix.deserialize(f)
        seconds = _now() - t0
        lost = skipped(self.csr)
        failed = lost
        note_text_bytes(tracer, self.csr, db.rows)
        if tracer is not None and self.jobs > 1:
            tracer.counts["engine.records"] += self.library_size
        latencies = []
        self.hits = []
        for k, (smi, _) in enumerate(self.queries):
            if k % 100 == 0:
                tick()
            t0 = _now()
            try:
                hits = similarity.bulk_top_k(self.fingerprinter.transform_one(smi), db, TOP_K, "tanimoto")
            except MolfpError:
                failed += 1
                hits = None
            else:
                latencies.append((_now() - t0) * 1e3)
            self.hits.append(hits)
        attempted = self.library_size + len(self.queries)
        return Round(seconds, self.library_size - lost, attempted, failed, latencies)

    def check(self):
        cols, rows = checks.read_csr(self.csr)
        if len(rows) != self.library_size:
            return [f"library matrix has {len(rows)} rows for {self.library_size} records"]
        errors = []
        rng = random.Random(self.seed + 2)
        for i in rng.sample(range(self.library_size), min(40, self.library_size)):
            if set(rows[i]) != set(self.fingerprinter.transform_one(self.library[i]).entries):
                errors.append(f"library row {i} differs from transform_one")
        supports = [set(r) for r in rows]
        for q in rng.sample(range(len(self.queries)), min(25, len(self.queries))):
            smi, _ = self.queries[q]
            if self.hits[q] is None:
                continue
            want = checks.full_scan(set(self.fingerprinter.transform_one(smi).entries), supports, TOP_K)
            errors += checks.check_hits(self.hits[q], want, f"query {q}")
        for q, (smi, row) in enumerate(self.queries):
            if row is not None and self.hits[q] is not None:
                errors += checks.check_self_hit(self.hits[q], row, TOP_K, f"member query {q}")
        return errors

    def extra_layer_metrics(self):
        """Wall time of one batch at jobs=1 over jobs=<usable CPUs>."""
        batch = self.library[: min(2000, self.library_size)]
        walls = []
        for jobs in (1, self.jobs):
            t0 = _now()
            transform_batch(batch, self.fingerprinter, BatchOptions(jobs=jobs), output="sparse")
            walls.append(_now() - t0)
        return {"engine.pool_speedup": walls[0] / walls[1]}


class LargeMolecules(Workload):
    """``molfp canonical`` and ``molfp compute --jobs 1`` (ecfp,
    atom-pair) on each large molecule of the seeded set, one command per
    molecule."""

    name = "large_molecules"
    OPERATIONS = (
        ("canonical", ()),
        ("ecfp", ("--fingerprint", "ecfp")),
        ("atom_pair", ("--fingerprint", "atom-pair")),
    )

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.ladder = SMOKE_LADDER if smoke else FULL_LADDER

    def _path(self, k: int, op: str) -> Path:
        return self.dir / f"m{k}.{op}"

    def setup(self, tracer=None):
        build = large_set if tracer is None else tracer.wrap("corpus.generate", large_set, lambda a, r: len(r))
        self.graphs = build(self.seed, self.ladder)
        self.smiles = [to_smiles(g) for g in self.graphs]
        for k, smi in enumerate(self.smiles):
            write_smi(self._path(k, "smi"), [smi])

    def run_round(self, tick, tracer=None):
        latencies = []
        failed = 0
        for k in range(len(self.graphs)):
            smi = self._path(k, "smi")
            for op, flags in self.OPERATIONS:
                out = self._path(k, op)
                if op == "canonical":
                    argv = ("canonical", smi, out, "--on-error", "skip")
                else:
                    argv = ("compute", smi, out, *flags, "--jobs", 1, "--output", "sparse", "--on-error", "skip")
                t0 = _now()
                molfp_command(*argv)
                latencies.append((_now() - t0) * 1e3)
                tick()
                lost = skipped(out)
                failed += lost
                if op != "canonical":
                    note_text_bytes(tracer, out, 1 - lost)
        attempted = len(self.graphs) * len(self.OPERATIONS)
        molecules = (attempted - failed) / len(self.OPERATIONS)
        return Round(sum(latencies) / 1e3, molecules, attempted, failed, latencies)

    def check(self):
        """On every molecule: canonical SMILES, and binary rows against
        count rows; closed forms on every chain and macrocycle; oracle
        totals on two seeded molecules per family."""
        errors = []
        rng = random.Random(self.seed + 3)
        sample = set()
        for family in self.ladder:
            slots = [k for k, g in enumerate(self.graphs) if g.family == family]
            sample.update(rng.sample(slots, min(2, len(slots))))
        for k, (graph, smi) in enumerate(zip(self.graphs, self.smiles)):
            with open(self._path(k, "canonical")) as f:
                canonical = f.read().split()
            rows = {op: checks.read_csr(self._path(k, op))[1] for op in ("ecfp", "atom_pair")}
            if len(canonical) != 2 or any(len(r) != 1 for r in rows.values()):
                errors.append(f"molecule {k}: outputs hold {canonical!r} and {[len(r) for r in rows.values()]} rows")
                continue
            mol = from_smiles(smi)
            counts = {op: checks.count_row(op, mol) for op in rows}
            label = f"molecule {k}"
            for op, file_rows in rows.items():
                errors += checks.check_binary_row(op, counts[op], file_rows[0], label)
                if k in sample:
                    errors += checks.check_oracle_total(op, mol, counts[op], label)
            if graph.family in ("chain", "macrocycle"):
                errors += checks.check_closed_forms(graph, mol, k, counts)
            errors += checks.check_canonical(graph, mol, canonical[0], rng.randrange(1, graph.n_atoms), k)
        return errors


WORKLOADS = {w.name: w for w in (FeaturizeSerial, Screen, LargeMolecules)}
