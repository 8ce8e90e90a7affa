"""One SHA-256 line per serialized batch output, to show that a change
keeps every output byte-identical.

Covers the seven families x binary/count x dense/sparse and three unions
(two of them with descriptors), each at jobs 1 and 2, over
``synthetic_smiles(2000, seed=13)``; then skip-mode runs at jobs 2 with
chunk_size 7, where failing records fill one chunk entirely, and an
empty input; last, one line over every ``match()`` result of the default
SMARTS keys on the same corpus, mappings in discovery order.

Usage (one source tree against another):
    PYTHONPATH=old/src python scripts/output_digest.py > old.txt
    PYTHONPATH=new/src python scripts/output_digest.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import io

from molfp import (
    BatchOptions,
    FingerprintConfig,
    Fingerprinter,
    from_smiles,
    serialize,
    transform_batch,
    union,
)
from molfp.corpus import synthetic_smiles
from molfp.smarts import MoleculeView, default_key_set_path, load_key_set, match

FAMILIES = (
    "ecfp",
    "fcfp",
    "atom_pair",
    "topological_torsion",
    "path",
    "substructure",
    "descriptors",
)
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

    keys = load_key_set(default_key_set_path())
    print(f"{match_digest(smiles, keys)}  match() of {len(keys)} default keys", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
