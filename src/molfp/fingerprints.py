"""The fingerprint families and vector post-processing.

Six families: circular (ecfp, fcfp), pairwise (atom_pair), torsional
(topological_torsion), linear (path), key-based (substructure), plus a
ten-entry real-valued descriptor vector.  All hashed families fold
32-bit feature codes modulo the configured length; binary variants
record presence, count variants record multiplicity.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from zlib import crc32

from .chem import (
    BOND_CODE,
    HALOGENS,
    BondOrder,
    Molecule,
    atomic_weight,
    initial_atom_invariant,
)
from .errors import ConfigError, FoldError
from .hashing import (
    TAG_ATOM_PAIR,
    TAG_ATOM_TYPE,
    TAG_ECFP,
    TAG_PATH,
    TAG_PATH_ATOM,
    TAG_TORSION,
    hash_seed,
    stable_hash32,
)
from .smarts import KeySet, MoleculeView, SmartsKey, default_key_set_path, load_key_set

N_DESCRIPTORS = 10

# Row variant -> matrix dtype, narrowest first; a union takes the widest.
VARIANT_DTYPES = {"binary": "u8", "count": "u32", "real": "f64"}


@dataclass(frozen=True)
class FingerprintVector:
    """Sparse per-molecule feature vector, the row of every transformer.

    ``entries`` maps index to value: ones for the binary variant,
    positive counts for the count variant, any nonzero float for the
    real variant (descriptors).  Zero-valued entries are never stored.
    """

    length: int
    variant: str
    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if self.variant not in VARIANT_DTYPES:
            raise ValueError(f"bad variant {self.variant!r}")
        for idx, value in self.entries.items():
            if not 0 <= idx < self.length:
                raise ValueError(f"index {idx} out of range for length {self.length}")
            if value < 1 and (value == 0 or self.variant != "real"):
                raise ValueError(f"{self.variant} vector stores {value} at index {idx}")
            if self.variant == "binary" and value != 1:
                raise ValueError(f"binary vector stores count {value} at index {idx}")

    def to_binary(self) -> "FingerprintVector":
        if self.variant == "binary":
            return self
        return FingerprintVector(self.length, "binary", {i: 1 for i in self.entries})


@dataclass(frozen=True)
class FingerprintConfig:
    """Fingerprint family plus its parameters.

    ``length`` applies to the hashed families only; substructure vectors
    take the key count as their length and descriptors are fixed at 10.
    """

    family: str
    length: int = 2048
    radius: int = 2
    min_path: int = 1
    max_path: int = 7
    distance_cap: int = 30
    variant: str = "binary"
    key_set_path: str | None = None

    def validate(self) -> None:
        if self.family not in FAMILY_ROWS:
            raise ConfigError(f"unknown fingerprint family {self.family!r}")
        for name in ("length", "radius", "min_path", "max_path", "distance_cap"):
            value = getattr(self, name)
            if type(value) is not int:  # not isinstance: True is an int
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.length < 1:
            raise ConfigError("length must be positive")
        if self.radius < 0:
            raise ConfigError("radius must be non-negative")
        if not 1 <= self.min_path <= self.max_path <= 10:
            raise ConfigError("need 1 <= min_path <= max_path <= 10")
        if not 1 <= self.distance_cap <= 30:
            raise ConfigError("need 1 <= distance_cap <= 30")
        if self.variant not in ("binary", "count"):
            raise ConfigError(f"unknown variant {self.variant!r}")


def _from_counts(counts: dict[int, int], length: int, variant: str) -> FingerprintVector:
    if variant == "binary":
        return FingerprintVector(length, "binary", {i: 1 for i in counts})
    return FingerprintVector(length, "count", dict(counts))


def _fold(
    codes: Iterable[int], ns: Iterable[int], cfg: FingerprintConfig
) -> FingerprintVector:
    """Fold 32-bit feature codes into a vector: each count in ``ns``
    lands at its code modulo the length."""
    counts: dict[int, int] = {}
    for code, n in zip(codes, ns):
        idx = code % cfg.length
        counts[idx] = counts.get(idx, 0) + n
    return _from_counts(counts, cfg.length, cfg.variant)


def _hashed(
    tally: dict[tuple[int, ...], int], tag: int, cfg: FingerprintConfig
) -> FingerprintVector:
    """Fold a tally of feature tuples into a vector, each distinct tuple
    hashed once under ``tag``."""
    return _fold([stable_hash32(tag, *key) for key in tally], tally.values(), cfg)


def _circular(mol: Molecule, cfg: FingerprintConfig, seeds: list[int]) -> FingerprintVector:
    """Shared ECFP/FCFP iteration.

    Iteration k hashes (k, own previous code, sorted (bond code,
    neighbor previous code) pairs).  Its environment is the set of bonds
    with an endpoint within k - 1 bonds of the atom, grown by the
    recurrence env_1(a) = bonds incident to a, env_k(a) = env_{k-1}(a)
    united with env_{k-1}(nbr) over the neighbors of a.  An environment
    whose bond set was already produced by an earlier environment (lower
    iteration first, then lower identifier) is discarded; iteration-0
    environments are one per atom and never collide.
    """
    bond_codes = [BOND_CODE[b.order] for b in mol.bonds]
    # (iteration, identifier, dedup key); radius-0 keys are per-atom.
    features: list[tuple[int, int, object]] = [
        (0, code, ("atom", idx)) for idx, code in enumerate(seeds)
    ]
    codes = seeds
    envs = [frozenset(bidx for _, bidx in nbrs) for nbrs in mol.neighbors]
    for k in range(1, cfg.radius + 1):
        if k > 1:
            envs = [
                env.union(*(envs[nbr] for nbr, _ in nbrs))
                for env, nbrs in zip(envs, mol.neighbors)
            ]
        new_codes = []
        for a, nbrs in enumerate(mol.neighbors):
            parts = sorted((bond_codes[bidx], codes[nbr]) for nbr, bidx in nbrs)
            ident = stable_hash32(TAG_ECFP, k, codes[a], *chain.from_iterable(parts))
            new_codes.append(ident)
            features.append((k, ident, envs[a]))
        codes = new_codes

    kept: dict[object, int] = {}  # environment -> identifier of its first feature
    for _, ident, env in sorted(features, key=lambda f: (f[0], f[1])):
        kept.setdefault(env, ident)
    return _fold(kept.values(), repeat(1), cfg)


def ecfp(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Circular fingerprint seeded by element-level atom invariants."""
    seeds = [initial_atom_invariant(mol, i) for i in range(mol.n_atoms)]
    return _circular(mol, cfg, seeds)


def _feature_class_code(mol: Molecule, idx: int) -> int:
    """Six-bit pharmacophoric class: donor, acceptor, positive, negative,
    aromatic, halogen."""
    a = mol.atoms[idx]
    code = 0
    if a.element in (7, 8) and mol.total_h[idx] >= 1:
        code |= 1
    if a.element in (7, 8):
        code |= 2
    if a.charge > 0:
        code |= 4
    if a.charge < 0:
        code |= 8
    if a.aromatic:
        code |= 16
    if a.element in HALOGENS:
        code |= 32
    return code


def fcfp(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Circular fingerprint seeded by feature classes instead of elements."""
    seeds = [_feature_class_code(mol, i) for i in range(mol.n_atoms)]
    return _circular(mol, cfg, seeds)


@lru_cache(maxsize=4096)
def _type_code(element: int, degree: int, aromatic: bool) -> int:
    """Atom type of the atom-pair and torsion families."""
    return stable_hash32(TAG_ATOM_TYPE, element, degree, int(aromatic))


# Above this many slots the atom-pair tally is a dict keyed by slot
# instead of a flat list.  The list has (cap + 1) * (types + 1)^2 slots,
# past this size only with dozens of distinct atom types.
_MAX_TALLY_SLOTS = 1 << 16


def atom_pair(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Hash (type, topological distance, type) for every heavy-atom pair
    within the distance cap; cross-component pairs are excluded.

    Column ``c`` stands for the c-th smallest heavy atom type; the
    hydrogens share one last column.  The atoms are renumbered in column
    order, so that a pair counted from its lower atom has the lower
    column first.  One breadth-first search per heavy atom, over plain
    int neighbour lists and one ``seen`` list stamped with the source,
    stops at the cap or once every higher atom is reached, so the cost
    is the atom count times the atoms within the cap.  A pair of columns
    a <= b at distance d is counted in one flat list at slot
    d * width^2 + a * width + b (width = columns).  Each nonzero
    heavy-atom slot is one distinct (type, distance, type), hashed once.
    """
    n = mol.n_atoms
    types = [
        _type_code(a.element, a.degree, a.aromatic) if a.element != 1 else None
        for a in mol.atoms
    ]
    distinct = sorted(set(types) - {None})
    n_types = len(distinct)
    column = {t: c for c, t in enumerate(distinct)}
    column[None] = n_types
    col = [column[t] for t in types]
    order = sorted(range(n), key=col.__getitem__)
    new_index = sorted(range(n), key=order.__getitem__)  # inverse of order
    nbrs = [[new_index[j] for j, _ in mol.neighbors[i]] for i in order]
    col.sort()
    n_heavy = n - types.count(None)

    width = n_types + 1
    plane = width * width  # slots per distance
    cap = min(cfg.distance_cap, n - 1)
    size = (cap + 1) * plane
    tally = [0] * size if size <= _MAX_TALLY_SLOTS else defaultdict(int)
    seen = [-1] * n
    for i in range(n_heavy - 1):  # the last heavy atom has no heavy partner above it
        seen[i] = i
        frontier = [i]
        slot = col[i] * width
        left = n - 1 - i  # atoms above i not reached yet
        for _ in range(cap):
            slot += plane
            reached = []
            for cur in frontier:
                for j in nbrs[cur]:
                    if seen[j] != i:
                        seen[j] = i
                        reached.append(j)
                        if j > i:
                            tally[slot + col[j]] += 1
                            left -= 1
            if not (reached and left):
                break
            frontier = reached

    if isinstance(tally, list):
        nonzero = zip(compress(range(size), tally), filter(None, tally))
    else:
        nonzero = tally.items()
    pairs: dict[tuple[int, int, int], int] = {}
    for slot, count in nonzero:
        d, rest = divmod(slot, plane)
        a, b = divmod(rest, width)
        if b < n_types:
            pairs[distinct[a], d, distinct[b]] = count
    return _hashed(pairs, TAG_ATOM_PAIR, cfg)


def topological_torsion(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Hash typed linear paths of exactly four distinct atoms, oriented
    by the lexicographically smaller of the type sequence and its
    reverse.

    Each undirected 4-path is enumerated once, from its central bond,
    and each distinct oriented type sequence is hashed once.
    """
    types = [_type_code(a.element, a.degree, a.aromatic) for a in mol.atoms]
    torsions: dict[tuple[int, ...], int] = {}
    for b in mol.bonds:
        # Each undirected 4-path arises exactly once: its central bond
        # in (min, max) orientation, ends drawn from either side.
        mid1, mid2 = min(b.i, b.j), max(b.i, b.j)
        for a, _ in mol.neighbors[mid1]:
            if a == mid2:
                continue
            for d, _ in mol.neighbors[mid2]:
                if d == mid1 or d == a:
                    continue
                seq = (types[a], types[mid1], types[mid2], types[d])
                canon = min(seq, seq[::-1])
                torsions[canon] = torsions.get(canon, 0) + 1
    return _hashed(torsions, TAG_TORSION, cfg)


@lru_cache(maxsize=4096)
def _path_atom_code(element: int, aromatic: bool, degree: int) -> int:
    """Atom code of the path family."""
    return stable_hash32(TAG_PATH_ATOM, element, int(aromatic), degree)


_PATH_SEED = hash_seed(TAG_PATH)
_pack_code = struct.Struct(">q").pack
_pack_pair = struct.Struct(">qq").pack


def path_fingerprint(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Hash simple bond paths of min_path..max_path bonds as alternating
    (atom code, bond code) sequences, oriented by the smaller of the
    sequence and its reverse, one feature per path.

    Each undirected path is generated once, from its parent: the same
    path without its larger end atom.  The roots are the one-bond paths
    (x, z) with x < z; a path with ends x ... y grows at y by an atom z
    only when z > x, and at x by z only when z > y.  A depth-first
    search over an explicit stack carries each path's codes as packed
    ``>q`` bytes in both orientations, x to y and y to x; growing
    appends to one and prepends to the other, from two byte strings
    packed once per neighbour entry.  Every code is a non-negative
    integer below 2^63 (atom codes are CRC-32 values, bond codes 1-4), and
    fixed-width big-endian bytes sort like the integers they encode, so
    the smaller byte string is ``min(seq, seq[::-1])``.  Each distinct
    oriented string is hashed once as ``zlib.crc32(key, hash_seed(TAG_PATH))``,
    which is ``stable_hash32(TAG_PATH, *seq)``.
    """
    acode = [_path_atom_code(a.element, a.aromatic, a.degree) for a in mol.atoms]
    bcode = [BOND_CODE[b.order] for b in mol.bonds]
    # Per neighbour entry: (atom, its bit, bytes appended at y, bytes prepended at x).
    grow = [
        [
            (z, 1 << z, _pack_pair(bcode[b], acode[z]), _pack_pair(acode[z], bcode[b]))
            for z, b in nbrs
        ]
        for nbrs in mol.neighbors
    ]
    # Byte lengths: a path of k bonds packs 2k + 1 codes of 8 bytes.
    shortest, longest = 8 * (2 * cfg.min_path + 1), 8 * (2 * cfg.max_path + 1)
    paths: dict[bytes, int] = {}
    for root, entries in enumerate(grow):
        code = _pack_code(acode[root])
        # (end x, end y, bitmask of the atoms on the path, codes x..y, codes y..x)
        stack = [
            (root, z, 1 << root | bit, code + app, pre + code)
            for z, bit, app, pre in entries
            if z > root
        ]
        while stack:
            x, y, on_path, fwd, rev = stack.pop()
            size = len(fwd)
            if size >= shortest:
                key = fwd if fwd <= rev else rev
                paths[key] = paths.get(key, 0) + 1
            if size < longest:
                for z, bit, app, pre in grow[y]:
                    if z > x and not on_path & bit:
                        stack.append((x, z, on_path | bit, fwd + app, pre + rev))
                for z, bit, app, pre in grow[x]:
                    if z > y and not on_path & bit:
                        stack.append((z, y, on_path | bit, pre + fwd, rev + app))
    return _fold([crc32(key, _PATH_SEED) for key in paths], paths.values(), cfg)


def substructure_fingerprint(
    mol: Molecule, keys: tuple[SmartsKey, ...], variant: str = "binary"
) -> FingerprintVector:
    """One vector position per key: match indicator or unique-match count.

    A KeySet is matched through its compiled slots; any other tuple of
    keys is compiled first, on every call."""
    keys = _key_set(keys)
    counts = keys.compiled.row(MoleculeView(mol), count=variant != "binary")
    return FingerprintVector(len(keys), variant, counts)


def _key_set(keys: tuple[SmartsKey, ...]) -> KeySet:
    """``keys`` compiled, unless they are a KeySet already; an empty key
    set raises ConfigError."""
    if not keys:
        raise ConfigError("substructure fingerprint needs a non-empty key set")
    return keys if isinstance(keys, KeySet) else KeySet(keys)


def descriptors(mol: Molecule) -> tuple[float, ...]:
    """Ten real-valued descriptors.

    Order: molecular weight, heavy atoms, rings, aromatic rings,
    H-bond donors, H-bond acceptors, rotatable bonds, net formal charge,
    fraction of sp3 carbons, halogens.
    """
    weights: list[float] = []
    heavy = 0
    hbd = 0
    hba = 0
    halogens = 0
    net_charge = 0
    n_carbon = 0
    n_sp3_carbon = 0
    bond_orders: list[list[BondOrder]] = [[] for _ in range(mol.n_atoms)]
    for b in mol.bonds:
        bond_orders[b.i].append(b.order)
        bond_orders[b.j].append(b.order)
    for idx, a in enumerate(mol.atoms):
        weights.append(atomic_weight(a.element) + a.implicit_h * atomic_weight(1))
        if a.element > 1:
            heavy += 1
        if a.element in (7, 8):
            hba += 1
            if mol.total_h[idx] >= 1:
                hbd += 1
        if a.element in HALOGENS:
            halogens += 1
        net_charge += a.charge
        if a.element == 6:
            n_carbon += 1
            if not a.aromatic and all(o is BondOrder.SINGLE for o in bond_orders[idx]):
                n_sp3_carbon += 1
    rings = mol.rings.rings
    aromatic_rings = sum(
        1 for ring in rings if all(mol.atoms[i].aromatic for i in ring)
    )
    rotatable = 0
    for bidx, b in enumerate(mol.bonds):
        if (
            b.order is BondOrder.SINGLE
            and not mol.rings.bond_in_ring[bidx]
            and mol.atoms[b.i].element > 1
            and mol.atoms[b.j].element > 1
            and mol.atoms[b.i].degree >= 2
            and mol.atoms[b.j].degree >= 2
        ):
            rotatable += 1
    frac_sp3 = n_sp3_carbon / n_carbon if n_carbon else 0.0
    # fsum makes the weight sum independent of atom iteration order
    return (
        math.fsum(weights),
        float(heavy),
        float(len(rings)),
        float(aromatic_rings),
        float(hbd),
        float(hba),
        float(rotatable),
        float(net_charge),
        frac_sp3,
        float(halogens),
    )


def fold(v: FingerprintVector, target: int) -> FingerprintVector:
    """Reduce length by combining indices congruent modulo target:
    OR for binary vectors, sum for counts and reals (a real sum of
    exactly zero is dropped)."""
    if target < 1 or v.length % target != 0:
        raise FoldError(f"target {target} does not divide length {v.length}")
    entries: dict[int, float] = {}
    for idx, value in v.entries.items():
        j = idx % target
        entries[j] = entries.get(j, 0) + value
    if v.variant == "binary":
        entries = {j: 1 for j in entries}
    elif v.variant == "real":
        entries = {j: x for j, x in entries.items() if x != 0}
    return FingerprintVector(target, v.variant, entries)


def _descriptor_vector(mol: Molecule) -> FingerprintVector:
    values = descriptors(mol)
    return FingerprintVector(N_DESCRIPTORS, "real", {i: v for i, v in enumerate(values) if v != 0})


# family -> row function (mol, cfg, keys) -> FingerprintVector
FAMILY_ROWS = {
    "ecfp": lambda mol, cfg, keys: ecfp(mol, cfg),
    "fcfp": lambda mol, cfg, keys: fcfp(mol, cfg),
    "atom_pair": lambda mol, cfg, keys: atom_pair(mol, cfg),
    "topological_torsion": lambda mol, cfg, keys: topological_torsion(mol, cfg),
    "path": lambda mol, cfg, keys: path_fingerprint(mol, cfg),
    "substructure": lambda mol, cfg, keys: substructure_fingerprint(mol, keys, cfg.variant),
    "descriptors": lambda mol, cfg, keys: _descriptor_vector(mol),
}


def resolve_keys(
    cfg: FingerprintConfig, keys: tuple[SmartsKey, ...] | None = None
) -> KeySet | None:
    """A substructure config's compiled keys: ``keys``, else its key
    file; None for any other family.  An empty key set raises
    ConfigError."""
    if cfg.family != "substructure":
        return None
    if keys is None:
        keys = load_key_set(cfg.key_set_path or default_key_set_path())
    return _key_set(keys)


def compute(
    mol: Molecule, cfg: FingerprintConfig, keys: tuple[SmartsKey, ...] | None = None
) -> FingerprintVector | tuple[float, ...]:
    """Validate the config, then compute its family.

    Substructure keys come from ``resolve_keys``.  Descriptors return the
    raw real-valued tuple rather than a sparse vector.
    """
    cfg.validate()
    if cfg.family == "descriptors":
        return descriptors(mol)
    return FAMILY_ROWS[cfg.family](mol, cfg, resolve_keys(cfg, keys))
