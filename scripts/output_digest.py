"""One SHA-256 line per serialized batch output, to show that a change
keeps every output byte-identical.

Covers the seven families x binary/count x dense/sparse and three unions
(two of them with descriptors), each at jobs 1 and 2, over
``synthetic_smiles(2000, seed=13)``; then skip-mode runs at jobs 2 with
chunk_size 7, where failing records fill one chunk entirely, and an
empty input; then one union at the default output form, and ``from_rows``
of the corpus ecfp rows, dense and sparse; then one line over every
``match()`` result of the default SMARTS keys on the same corpus,
mappings in discovery order; then one line over every ``parse_smarts``
outcome (the pattern's repr, or the error's type, message and position)
on the default keys and a seeded set of mutated keys; then one line over
every ``from_smiles`` outcome (the molecule's repr, or the error) on the
corpus, the 47 large molecules of ``bench/molecules.py`` and a seeded set
of mutated corpus SMILES; then one line over the ``sanitize`` result of
three seeded atom orders (``permute_draft``) of each corpus and large
molecule's draft, which the parser alone never produces and on which
fused ring bases depend; then one line over the canonical SMILES of the
corpus and the large molecules, and one over their ``canonical_ranks``;
then one line over the ecfp count rows of the large molecules, one
over their atom_pair count rows at each distance cap of 1, 3 and 30,
and one over their substructure count rows; then one line per path
(min_path, max_path) of (1, 1), (2, 4) and (1, 10), variant and set
(corpus, large molecules) over those rows; then one line over the
binary and count substructure rows of the corpus for the hand-written
key set of ``tests/oracles.py``; then one line over the ``bulk_top_k`` hits of 71 queries against the
corpus ecfp rows (see ``top_k_digest``); last, one line per ``molfp``
command run through ``cli.main`` in a temporary directory (see
``cli_lines``), over its exit code, stdout, stderr and the files it
wrote.

Usage (one source tree against another):
    PYTHONPATH=old/src python scripts/output_digest.py > old.txt
    PYTHONPATH=new/src python scripts/output_digest.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from molfp import (
    BatchOptions,
    FingerprintConfig,
    Fingerprinter,
    FingerprintVector,
    bulk_top_k,
    canonical_ranks,
    cli,
    from_rows,
    from_smiles,
    parse_smarts,
    parse_smiles,
    sanitize,
    serialize,
    transform_batch,
    union,
    write_canonical_smiles,
)
from molfp.corpus import synthetic_smiles
from molfp.errors import MolfpError
from molfp.smarts import MoleculeView, SmartsKey, default_key_set_path, load_key_set, match

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT)]
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402
from tests.oracles import HAND_KEY_TEXTS, permute_draft, random_permutation  # noqa: E402

FAMILIES = (
    "ecfp",
    "fcfp",
    "atom_pair",
    "topological_torsion",
    "path",
    "substructure",
    "descriptors",
)
SMILES_ALPHABET = "CNOSPFIBrcl()[]=#-:/\\.0123456789%+@H*$? "
# Every letter primitive, and the letters that make them two-letter
# elements (He, Hg, Db, Rb, Xe).
SMARTS_ALPHABET = "CNOScnos()[]=#-:~@!&,;.0123456789%+*$HDXRrAabeg "
BAD = ("C1CC", "[H]=[H]", "C(C", "C=1CC1#C", "Q", "C%", "CC)")


def fingerprinter(family: str, variant: str = "binary", length: int = 2048) -> Fingerprinter:
    return Fingerprinter(FingerprintConfig(family=family, variant=variant, length=length))


def transformers():
    for family in FAMILIES:
        for variant in ("binary", "count"):
            yield f"{family}/{variant}", fingerprinter(family, variant)
    yield "union ecfp+substructure", union(
        [fingerprinter("ecfp", length=1024), fingerprinter("substructure")]
    )
    yield "union ecfp/count+descriptors", union(
        [fingerprinter("ecfp", "count", 512), fingerprinter("descriptors")]
    )
    yield "union fcfp+atom_pair/count+descriptors+path", union(
        [
            fingerprinter("fcfp", length=256),
            fingerprinter("atom_pair", "count", 256),
            fingerprinter("descriptors"),
            fingerprinter("path", length=128),
        ]
    )


def digest(matrix) -> str:
    buf = io.StringIO()
    serialize(matrix, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def match_digest(smiles: list[str], keys) -> str:
    """Over each key's mappings in order and unique atom sets in order."""
    h = hashlib.sha256()
    for smi in smiles:
        mol = from_smiles(smi)
        view = MoleculeView(mol)
        for key in keys:
            found = match(key.pattern, mol, view)
            h.update(repr((found.mappings, [sorted(s) for s in found.unique_atom_sets])).encode())
    return h.hexdigest()


def mutated(
    texts: list[str], count: int, seed: int = 13, alphabet: str = SMILES_ALPHABET
) -> list[str]:
    """Texts with one to three characters inserted, deleted or replaced,
    some with surrounding whitespace."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            p = rng.randrange(len(chars) + 1)
            op = rng.random()
            if op < 0.4 or not chars:
                chars.insert(p, rng.choice(alphabet))
            elif op < 0.7:
                del chars[min(p, len(chars) - 1)]
            else:
                chars[min(p, len(chars) - 1)] = rng.choice(alphabet)
        text = "".join(chars)
        out.append(" " + text if rng.random() < 0.1 else text)
    return out


def parse_digest(parse, texts: list[str]) -> str:
    """Over ``parse(text)``'s repr, or its error's type, message and
    position, for each text."""
    h = hashlib.sha256()
    for text in texts:
        try:
            outcome = repr(parse(text))
        except MolfpError as exc:
            outcome = f"{type(exc).__name__} {exc} {getattr(exc, 'position', None)}"
        h.update(outcome.encode() + b"\n")
    return h.hexdigest()


def top_k_digest(rows: list[FingerprintVector]) -> str:
    """Over the repr of ``bulk_top_k``'s hits, both metrics at k of 1, 10
    and every row, for 50 library members, 20 novel molecules and an
    empty query, against ``rows`` as one CSR matrix."""
    db = from_rows(rows, "sparse")
    fp = fingerprinter("ecfp")
    members = random.Random(13).sample(range(len(rows)), 50)
    queries = [rows[i] for i in members]
    queries += [fp.transform_one(smi) for smi in synthetic_smiles(20, 14)]
    queries.append(FingerprintVector(db.cols, "binary", {}))
    h = hashlib.sha256()
    for query in queries:
        for metric in ("tanimoto", "dice"):
            for k in (1, 10, db.rows):
                h.update(repr(bulk_top_k(query, db, k, metric)).encode() + b"\n")
    return h.hexdigest()


def cli_lines(smiles: list[str]):
    """(digest, label) per ``cli.main`` invocation: compute at jobs 1 and 2
    and canonical, each in raise and skip mode, over 200 corpus records
    with the BAD records among them; search with a good and a bad query;
    a missing input, an undecodable line, a bad key set and a bad
    --jobs-list; gen-corpus.  The temporary directory's path is replaced
    by a fixed token in stdout and stderr."""
    os.environ["MOLFP_JOBS"] = "1"  # search takes its worker count from here
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mixed, clean, undecodable, keys = (
            root / name for name in ("mixed.smi", "clean.smi", "undecodable.smi", "bad.smarts")
        )
        texts = list(smiles[:100]) + list(BAD) + list(smiles[100:200])
        mixed.write_text("".join(f"{smi} m{i}\n" for i, smi in enumerate(texts)))
        clean.write_text("".join(f"{smi} c{i}\n" for i, smi in enumerate(smiles[:200])))
        undecodable.write_bytes(b"CCO ok\n\xff\xfeCC bad\n")
        keys.write_text("K1\t[#\u00b2]\tbad\n", encoding="utf-8")
        ecfp = ("--fingerprint", "ecfp", "--output", "sparse")
        commands = {
            "compute jobs=1 raise": ("compute", mixed, "fps.mat", *ecfp, "--jobs", "1"),
            "compute jobs=2 raise": ("compute", mixed, "fps.mat", *ecfp, "--jobs", "2"),
            "compute jobs=1 skip": (
                "compute", mixed, "fps.mat", *ecfp, "--jobs", "1", "--on-error", "skip"
            ),
            "compute jobs=2 skip": (
                "compute", mixed, "fps.mat", *ecfp, "--jobs", "2", "--chunk-size", "7",
                "--on-error", "skip",
            ),
            "canonical raise": ("canonical", mixed, "canon.smi"),
            "canonical skip": ("canonical", mixed, "canon.smi", "--on-error", "skip"),
            "search good query": ("search", "c1ccccc1O", clean, "--fingerprint", "path"),
            "search bad query": ("search", BAD[0], clean, "--fingerprint", "ecfp"),
            "missing input": ("compute", root / "absent.smi", "fps.mat", *ecfp),
            "undecodable line": ("canonical", undecodable, "canon.smi"),
            "bad key set": (
                "compute", clean, "fps.mat", "--fingerprint", "substructure", "--key-set", keys
            ),
            "bad --jobs-list": ("benchmark", clean, "--fingerprint", "ecfp", "--jobs-list", "1,x"),
            "gen-corpus": ("gen-corpus", "corpus.smi", "--count", "50", "--seed", "3"),
        }
        cwd = os.getcwd()
        for k, (label, argv) in enumerate(commands.items()):
            # Each command runs in a directory of its own, where it writes
            # its output files.
            out = root / f"out{k}"
            out.mkdir()
            os.chdir(out)
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main([str(a) for a in argv])
            finally:
                os.chdir(cwd)
            h = hashlib.sha256(f"{code}\n".encode())
            for text in (stdout.getvalue(), stderr.getvalue()):
                h.update(text.replace(tmp, "<tmp>").encode() + b"\0")
            for path in sorted(out.iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
            yield h.hexdigest(), f"cli {label} exit={code}"


def main() -> int:
    smiles = synthetic_smiles(2000, seed=13)
    for label, t in transformers():
        for jobs in (1, 2):
            for output in ("dense", "sparse"):
                matrix, _ = transform_batch(smiles, t, BatchOptions(jobs=jobs), output=output)
                print(f"{digest(matrix)}  {label} jobs={jobs} {output}", flush=True)

    # Records 7-13 all fail, so the second chunk of 7 has no rows.
    mixed = list(smiles[:7]) + list(BAD) + list(smiles[7:30]) + [BAD[0]]
    skip = BatchOptions(jobs=2, chunk_size=7, error_mode="skip")
    for label, t in transformers():
        for output in ("dense", "sparse"):
            matrix, report = transform_batch(mixed, t, skip, output=output)
            print(f"{digest(matrix)}  {label} skip n_ok={report.n_ok} {output}", flush=True)
            matrix, _ = transform_batch([], t, skip, output=output)
            print(f"{digest(matrix)}  {label} empty {output}", flush=True)

    u = union([fingerprinter("ecfp", length=1024), fingerprinter("substructure")])
    matrix, _ = transform_batch(smiles, u, BatchOptions())
    print(f"{digest(matrix)}  union ecfp+substructure default output", flush=True)
    ecfp_rows = [fingerprinter("ecfp").transform_one(smi) for smi in smiles]
    for output in ("dense", "sparse"):
        print(f"{digest(from_rows(ecfp_rows, output))}  from_rows ecfp {output}", flush=True)

    keys = load_key_set(default_key_set_path())
    print(f"{match_digest(smiles, keys)}  match() of {len(keys)} default keys", flush=True)
    patterns = [key.smarts for key in keys]
    patterns += mutated(patterns, 20000, alphabet=SMARTS_ALPHABET)
    line = parse_digest(parse_smarts, patterns)
    print(f"{line}  parse_smarts() of {len(patterns)} texts", flush=True)

    large = [to_smiles(g) for g in large_set(13, FULL_LADDER)]
    valid = list(smiles) + large
    texts = valid + mutated(smiles, 20000)
    print(f"{parse_digest(from_smiles, texts)}  from_smiles() of {len(texts)} texts", flush=True)
    h = hashlib.sha256()
    rng = random.Random(13)
    for smi in valid:
        draft = parse_smiles(smi)
        for _ in range(3):
            perm = random_permutation(len(draft.atoms), rng)
            h.update(repr(sanitize(permute_draft(draft, perm))).encode() + b"\n")
    print(f"{h.hexdigest()}  sanitize() of 3 atom orders of {len(valid)} molecules", flush=True)
    h = hashlib.sha256()
    for smi in valid:
        h.update(write_canonical_smiles(from_smiles(smi)).encode() + b"\n")
    print(f"{h.hexdigest()}  canonical SMILES of {len(valid)} molecules", flush=True)
    h = hashlib.sha256()
    for smi in valid:
        h.update(repr(canonical_ranks(from_smiles(smi))).encode() + b"\n")
    print(f"{h.hexdigest()}  canonical_ranks of {len(valid)} molecules", flush=True)
    configs = [("ecfp", FingerprintConfig(family="ecfp", variant="count"))]
    for cap in (1, 3, 30):
        cfg = FingerprintConfig(family="atom_pair", variant="count", distance_cap=cap)
        configs.append((f"atom_pair cap={cap}", cfg))
    configs.append(("substructure", FingerprintConfig(family="substructure", variant="count")))
    for label, cfg in configs:
        fp = Fingerprinter(cfg)
        rows = [fp.transform_one(smi) for smi in large]
        line = digest(from_rows(rows, "sparse"))
        print(f"{line}  {label} count rows of {len(large)} large molecules", flush=True)
    for lo, hi in ((1, 1), (2, 4), (1, 10)):
        for variant in ("binary", "count"):
            fp = Fingerprinter(
                FingerprintConfig(family="path", variant=variant, min_path=lo, max_path=hi)
            )
            for name, texts in (("corpus", smiles), ("large", large)):
                line = digest(from_rows([fp.transform_one(smi) for smi in texts], "sparse"))
                print(f"{line}  path {lo}..{hi} {variant} rows of {name}", flush=True)
    hand_keys = tuple(
        SmartsKey(f"H{i:02d}", text, "", parse_smarts(text))
        for i, text in enumerate(HAND_KEY_TEXTS)
    )
    h = hashlib.sha256()
    for variant in ("binary", "count"):
        fp = Fingerprinter(FingerprintConfig(family="substructure", variant=variant), hand_keys)
        matrix, _ = transform_batch(smiles, fp, BatchOptions(), output="sparse")
        h.update(digest(matrix).encode())
    print(f"{h.hexdigest()}  substructure rows of {len(hand_keys)} hand-written keys", flush=True)

    print(f"{top_k_digest(ecfp_rows)}  bulk_top_k hits of 71 queries", flush=True)

    for line, label in cli_lines(smiles):
        print(f"{line}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
