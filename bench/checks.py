"""Output checks, each made apart from the code under test.

Every check reads what the timed part wrote (the CSRv1 files, the
canonical SMILES file, the query hits) and compares it against one of:
the brute-force oracles in ``tests/oracles.py``, closed forms for
unbranched chains and rings, a set-based full scan written here, or a
property the method must have.  Each returns a list of mismatch
messages; an empty list means the output passed.
"""

from __future__ import annotations

from molfp import from_smiles, write_canonical_smiles
from molfp.engine import Fingerprinter
from molfp.fingerprints import FingerprintConfig
from molfp.smarts import default_key_set_path, load_key_set
from tests.oracles import (
    atom_pair_feature_count,
    brute_force_matches,
    cyclomatic_number,
    ecfp_feature_count,
    path_feature_count,
    torsion_feature_count,
)

from molecules import to_smiles

RING_COUNT = 2  # position of the ring count in the descriptor vector
HEAVY_ATOMS = 1


def read_csr(path) -> tuple[int, list[dict[int, float]]]:
    """Parse a CSRv1 file into (columns, row dicts) without molfp."""
    with open(path) as f:
        lines = f.read().split("\n")
    header = lines[0].split()
    if header[0] != "CSRv1" or len(header) != 5:
        raise ValueError(f"{path}: not a CSRv1 header: {lines[0]!r}")
    rows, cols, nnz = int(header[1]), int(header[2]), int(header[3])
    indptr = [int(x) for x in lines[1].split()]
    indices = [int(x) for x in lines[2].split()]
    data = [float(x) for x in lines[3].split()]
    if len(indptr) != rows + 1 or len(indices) != nnz or len(data) != nnz:
        raise ValueError(f"{path}: CSRv1 sections disagree with the header")
    return cols, [
        dict(zip(indices[lo:hi], data[lo:hi])) for lo, hi in zip(indptr, indptr[1:])
    ]


def count_row(family: str, mol) -> dict[int, int]:
    fp = Fingerprinter(FingerprintConfig(family=family, variant="count"))
    return fp.transform_one(mol).entries


def _edges(mol) -> list[tuple[int, int]]:
    return [(b.i, b.j) for b in mol.bonds]


ORACLE_TOTALS = {
    "ecfp": lambda mol: ecfp_feature_count(mol, 2),
    "fcfp": lambda mol: ecfp_feature_count(mol, 2),
    "atom_pair": lambda mol: atom_pair_feature_count(mol, 30),
    "topological_torsion": torsion_feature_count,
    "path": lambda mol: path_feature_count(mol, 1, 7),
}


def check_oracle_total(family: str, mol, counts, label: str) -> list[str]:
    """The count row's total equals the oracle's feature count."""
    want = ORACLE_TOTALS[family](mol)
    if sum(counts.values()) != want:
        return [f"{label} {family}: count total {sum(counts.values())} != oracle {want}"]
    return []


def check_binary_row(family: str, counts, file_row, label: str) -> list[str]:
    """The binary row in the file has the count row's support and only 1s."""
    if set(file_row) != set(counts):
        return [f"{label} {family}: binary support differs from count support"]
    if any(v != 1 for v in file_row.values()):
        return [f"{label} {family}: binary row holds a value other than 1"]
    return []


def check_hashed_rows(family: str, mols, file_rows, label: str) -> list[str]:
    """Count-variant totals equal the oracle's feature count, and the
    binary row in the file has the count row's support."""
    errors = []
    for idx, mol in mols:
        counts = count_row(family, mol)
        errors += check_oracle_total(family, mol, counts, f"{label} row {idx}")
        errors += check_binary_row(family, counts, file_rows[idx], f"{label} row {idx}")
    return errors


def answer_entries(answer) -> dict[int, float]:
    """The nonzero entries of a ``transform_one`` answer, as a CSRv1 row
    holds them: a vector's entries, or a descriptor tuple without zeros."""
    if isinstance(answer, tuple):
        return {i: v for i, v in enumerate(answer) if v != 0}
    return answer.entries


def check_substructure_rows(mols, file_rows, label: str) -> list[str]:
    """Each key's bit equals 'the brute-force search finds a match'."""
    keys = load_key_set(default_key_set_path())
    errors = []
    for idx, mol in mols:
        want = {pos for pos, key in enumerate(keys) if brute_force_matches(key.pattern, mol)}
        if set(file_rows[idx]) != want:
            errors.append(
                f"{label} substructure row {idx}: bits {sorted(file_rows[idx])} != brute force {sorted(want)}"
            )
    return errors


def check_descriptor_rows(mols, file_rows, label: str) -> list[str]:
    """Ring count equals the cyclomatic number; heavy-atom count equals
    the non-hydrogen atoms."""
    errors = []
    for idx, mol in mols:
        row = file_rows[idx]
        rings = row.get(RING_COUNT, 0.0)
        want = cyclomatic_number(mol.n_atoms, _edges(mol))
        if rings != want:
            errors.append(f"{label} descriptors row {idx}: ring count {rings} != cyclomatic {want}")
        heavy = sum(1 for a in mol.atoms if a.element != 1)
        if row.get(HEAVY_ATOMS, 0.0) != heavy:
            errors.append(f"{label} descriptors row {idx}: heavy atoms {row.get(HEAVY_ATOMS)} != {heavy}")
    return errors


# ------------------------------------------------------------- screen

def full_scan(query: set[int], rows: list[set[int]], k: int) -> list[tuple[int, float]]:
    """Reference top-k: Tanimoto on supports by set operations, sorted by
    descending score then ascending row."""
    scored = []
    for r, row in enumerate(rows):
        union = len(query | row)
        scored.append((len(query & row) / union if union else 0.0, r))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(r, s) for s, r in scored[:k]]


def check_hits(hits, want, label: str) -> list[str]:
    got = [(h.row, h.score) for h in hits]
    if [r for r, _ in got] != [r for r, _ in want] or any(
        abs(a - b) > 1e-12 for (_, a), (_, b) in zip(got, want)
    ):
        return [f"{label}: hits {got[:3]}... != full scan {want[:3]}..."]
    return []


def check_self_hit(hits, row: int, k: int, label: str) -> list[str]:
    """A library member scores 1.0 against its own row, so its row is
    among the hits unless k lower rows also score 1.0."""
    if not hits or hits[0].score != 1.0:
        return [f"{label}: top score {hits[0].score if hits else None} != 1.0"]
    rows = [h.row for h in hits]
    if row in rows:
        if hits[rows.index(row)].score != 1.0:
            return [f"{label}: own row {row} scored {hits[rows.index(row)].score}"]
        return []
    if len(hits) == k and all(h.score == 1.0 and h.row < row for h in hits):
        return []
    return [f"{label}: own row {row} missing from hits {rows}"]


# ------------------------------------------------------ large molecules

def chain_closed_forms(n: int) -> dict[str, int]:
    """Feature totals on an unbranched chain of n heavy atoms."""
    return {
        "atom_pair": sum(n - d for d in range(1, min(30, n - 1) + 1)),
        "path": sum(n - length for length in range(1, 8) if length < n),
        "topological_torsion": max(n - 3, 0),
        "rings": 0,
    }


def ring_closed_forms(n: int) -> dict[str, int]:
    """Feature totals on a single unbranched ring of n > 8 atoms: n pairs
    at each distance below n/2, n/2 at distance n/2."""
    pairs = sum(n if 2 * d < n else n // 2 for d in range(1, min(30, n // 2) + 1))
    return {"atom_pair": pairs, "path": 7 * n, "topological_torsion": n, "rings": 1}


def check_closed_forms(graph, mol, idx: int, counts: dict[str, dict[int, int]]) -> list[str]:
    """Feature totals and ring count against the closed forms; ``counts``
    holds count rows already computed, by family."""
    forms = (chain_closed_forms if graph.family == "chain" else ring_closed_forms)(graph.n_atoms)
    errors = []
    for family in ("atom_pair", "path", "topological_torsion"):
        row = counts[family] if family in counts else count_row(family, mol)
        got = sum(row.values())
        if got != forms[family]:
            errors.append(f"{graph.family} {idx} ({graph.n_atoms} atoms): {family} total {got} != {forms[family]}")
    if len(mol.rings.rings) != forms["rings"]:
        errors.append(f"{graph.family} {idx}: {len(mol.rings.rings)} rings != {forms['rings']}")
    return errors


def check_canonical(graph, mol, canonical: str, other_root: int, idx: int) -> list[str]:
    """Canonical SMILES is a fixed point, and the same molecule written
    from another start atom gives the same string."""
    errors = []
    if write_canonical_smiles(from_smiles(canonical)) != canonical:
        errors.append(f"{graph.family} {idx}: canonical SMILES is not idempotent")
    if write_canonical_smiles(from_smiles(to_smiles(graph, other_root))) != canonical:
        errors.append(f"{graph.family} {idx}: canonical SMILES changes with the start atom {other_root}")
    if mol.n_atoms != graph.n_atoms:
        errors.append(f"{graph.family} {idx}: parsed {mol.n_atoms} atoms, built {graph.n_atoms}")
    return errors
