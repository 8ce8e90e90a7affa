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
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, groupby, repeat
from zlib import crc32

import numpy as np

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

# From this many atoms on, atom_pair tallies with the numpy sweep; below
# it the per-source search is faster (they cross between 36 and 40 atoms
# on a 2-CPU host).
_SWEEP_ATOMS = 40
# The sweep pads every atom's neighbours to the largest degree, so a
# molecule with an atom of more neighbours takes the search.
_SWEEP_DEGREE = 6
# (source, atom) cells of one block of the sweep's reached and stamp arrays.
_SWEEP_CELLS = 1 << 20

_pack_code = struct.Struct(">q").pack
_BOND_BYTES = {order: _pack_code(code) for order, code in BOND_CODE.items()}


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


def _fold(
    codes: Iterable[int], ns: Iterable[int], cfg: FingerprintConfig
) -> FingerprintVector:
    """Fold 32-bit feature codes into a vector: each count in ``ns``
    lands at its code modulo the length; a binary row stores 1 at each
    code's index."""
    length = cfg.length
    if cfg.variant == "binary":
        return FingerprintVector(length, "binary", {code % length: 1 for code in codes})
    counts: dict[int, int] = {}
    for code, n in zip(codes, ns):
        idx = code % length
        counts[idx] = counts.get(idx, 0) + n
    return FingerprintVector(length, "count", counts)


def _hashed(
    tally: dict[tuple[int, ...], int], tag: int, cfg: FingerprintConfig
) -> FingerprintVector:
    """Fold a tally of feature tuples into a vector, each distinct tuple
    hashed once under ``tag``."""
    return _fold([stable_hash32(tag, *key) for key in tally], tally.values(), cfg)


def _circular(mol: Molecule, cfg: FingerprintConfig, seeds: list[int]) -> FingerprintVector:
    """Shared ECFP/FCFP iteration.

    Iteration k hashes (k, own previous code, sorted (bond code,
    neighbor previous code) pairs) as ``crc32(pairs, crc32(own,
    hash_seed(TAG_ECFP, k)))``, codes packed as ``>q`` bytes; the pairs
    sort as bytes as they do as integers (see ``path_fingerprint``).
    Its environment is the int bitmask of the bonds with an endpoint
    within k - 1 bonds of the atom: the atom's mask of iteration k - 1
    (0 before the first), OR each neighbor's mask and the bond to it.
    Every seed is kept.  In iteration k an environment that an earlier
    iteration produced is dropped, and any other keeps the smallest
    identifier among the atoms that produce it.
    """
    kept = list(seeds)
    codes = seeds
    neighbors = mol.neighbors
    bond_bytes = [_BOND_BYTES[b.order] for b in mol.bonds]
    envs = [0] * len(seeds)
    seen: set[int] = set()  # environments of the earlier iterations
    for k in range(1, cfg.radius + 1):
        grown = []
        for env, nbrs in zip(envs, neighbors):
            for j, b in nbrs:
                env |= envs[j] | 1 << b
            grown.append(env)
        envs = grown
        seed = hash_seed(TAG_ECFP, k)
        packed = [_pack_code(code) for code in codes]
        codes = [
            crc32(b"".join(sorted([bond_bytes[b] + packed[j] for j, b in nbrs])), crc32(own, seed))
            for own, nbrs in zip(packed, neighbors)
        ]
        best: dict[int, int] = {}
        for env, ident in zip(envs, codes):
            if env not in seen and ident < best.get(env, 1 << 32):
                best[env] = ident
        seen.update(best)
        kept += best.values()
    return _fold(kept, repeat(1), cfg)


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


def _pair_graph(mol: Molecule) -> tuple[list[list[int]], list[int], list[int], int]:
    """The atom-pair graph: neighbour lists and columns of the atoms
    renumbered in column order, the heavy atom types by column, and the
    heavy atom count.

    Column ``c`` stands for the c-th smallest heavy atom type; the
    hydrogens share one last column.  In column order a pair counted
    from its lower atom has the lower column first, the sources of one
    column are consecutive and the heavy atoms come first.
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
    return nbrs, col, distinct, n - types.count(None)


def _search_pairs(
    nbrs: list[list[int]], col: list[int], distinct: list[int], n_heavy: int, cap: int
) -> dict[tuple[int, int, int], int]:
    """Pair tally from one breadth-first search per heavy atom, over
    plain int neighbour lists and one ``seen`` list stamped with the
    source.  A search stops at the cap or once every higher atom is
    reached, so the cost is the atom count times the atoms within the
    cap.  The sources of column a count their pairs in one list of
    (cap + 1) * width slots (width = columns), a pair at distance d with
    column b at slot d * width + b, read out once those sources are
    done, so memory is linear in the column count.
    """
    n = len(nbrs)
    n_types = len(distinct)
    width = n_types + 1
    size = (cap + 1) * width
    pairs: dict[tuple[int, int, int], int] = {}
    seen = [-1] * n
    # The last heavy atom has no heavy partner above it.
    for a, sources in groupby(range(n_heavy - 1), key=col.__getitem__):
        tally = [0] * size
        for i in sources:
            seen[i] = i
            frontier = [i]
            slot = 0
            left = n - 1 - i  # atoms above i not reached yet
            for _ in range(cap):
                slot += width
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
        for slot, count in zip(compress(range(size), tally), filter(None, tally)):
            d, b = divmod(slot, width)
            if b < n_types:
                pairs[distinct[a], d, distinct[b]] = count
    return pairs


def _sweep_pairs(
    nbrs: list[list[int]], col: list[int], distinct: list[int], n_heavy: int, cap: int
) -> dict[tuple[int, int, int], int]:
    """Pair tally from one numpy sweep that moves the frontier of every
    source forward one level per step.

    Cell ``s * (n + 1) + j`` stands for atom j as reached from source s.
    Atom n is a dummy: it pads the neighbour table to the largest degree
    and every source has reached it from the start.  Each level looks up
    the frontier's neighbours, drops the cells already reached, and
    keeps one copy of each cell: every copy writes its position into a
    stamp array, and the copy whose position stays there is kept.
    After the last level, the cells that pair a lower with a higher
    heavy atom become (lower column, distance, higher column) keys,
    counted by one ``bincount``.  Sources go through in blocks of at
    most ``_SWEEP_CELLS`` cells, and of a column span whose keys fit in
    as many slots, so memory is linear in n times the largest degree.
    Each level's candidate cells number the frontier's times the largest
    degree, so ``atom_pair`` keeps high-degree molecules off this path.
    """
    n = len(nbrs)
    stride = n + 1
    width = len(distinct) + 1
    slots = (cap + 1) * width  # count slots per source column
    degree = np.fromiter(map(len, nbrs), np.intp, n)
    ends = np.cumsum(degree)
    atoms = np.arange(stride)
    # step[j, k]: from atom j's cell to the cell of its k-th neighbour
    step = np.full((stride, max(1, int(degree.max()))), n, np.intp)
    step[np.repeat(atoms[:n], degree), np.arange(ends[-1]) - np.repeat(ends - degree, degree)] = (
        np.fromiter(chain.from_iterable(nbrs), np.intp, ends[-1])
    )
    step -= atoms[:, None]
    column = np.array(col, np.intp)
    block = max(1, min(_SWEEP_CELLS // stride, n_heavy - 1))
    span = max(1, _SWEEP_CELLS // slots)
    stamp = np.empty(block * stride, np.intp)
    pairs: dict[tuple[int, int, int], int] = {}
    s0 = 0
    # The last heavy atom has no heavy partner above it.
    while s0 < n_heavy - 1:
        a0 = col[s0]
        s1 = min(s0 + block, n_heavy - 1, bisect_left(col, a0 + span, s0))
        sources = atoms[s0:s1]
        frontier = (sources - s0) * stride + sources
        unreached = np.ones((s1 - s0) * stride, bool)
        unreached[frontier] = False
        unreached[frontier + (n - sources)] = False
        reached = []
        for _ in range(cap):
            cells = (frontier[:, None] + step.take(frontier % stride, axis=0)).ravel()
            cells = cells.compress(unreached.take(cells))
            order = np.arange(len(cells))
            stamp[cells] = order
            frontier = cells.compress(stamp.take(cells) == order)
            if not len(frontier):
                break
            unreached[frontier] = False
            reached.append(frontier)
        if reached:
            dist = np.repeat(atoms[1 : len(reached) + 1], [len(f) for f in reached])
            s, j = np.divmod(np.concatenate(reached), stride)
            s += s0
            hit = (j > s) & (j < n_heavy)
            keys = ((column[s[hit]] - a0) * (cap + 1) + dist[hit]) * width + column[j[hit]]
            tally = np.bincount(keys)
            found = np.flatnonzero(tally)
            rest, high = np.divmod(found, width)
            low, gap = np.divmod(rest, cap + 1)
            for a, d, b, count in zip(
                (low + a0).tolist(), gap.tolist(), high.tolist(), tally[found].tolist()
            ):
                key = distinct[a], d, distinct[b]
                pairs[key] = pairs.get(key, 0) + count
        s0 = s1
    return pairs


def atom_pair(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    """Hash (type, topological distance, type) for every heavy-atom pair
    within the distance cap; cross-component pairs are excluded.

    Each distinct (type, distance, type) is hashed once.  The tally
    comes from one of two kernels with the same output, chosen by size:
    - below ``_SWEEP_ATOMS`` atoms, ``_search_pairs``, one Python
      breadth-first search per heavy atom: about 0.2 µs per visited atom,
      memory linear in the column count;
    - from ``_SWEEP_ATOMS`` atoms on, unless an atom has more than
      ``_SWEEP_DEGREE`` neighbours, ``_sweep_pairs``, one numpy sweep
      over every source: a cost per level instead of per visit, memory in
      blocks of ``_SWEEP_CELLS`` (source, atom) cells.
    On a 2-CPU host the two cross between 36 and 40 atoms, and the
    tally of a corpus molecule (33 atoms at most) takes a median 28–30
    µs by search against 82–98 µs by sweep.
    """
    nbrs, col, distinct, n_heavy = _pair_graph(mol)
    sweep = mol.n_atoms >= _SWEEP_ATOMS and max(map(len, nbrs)) <= _SWEEP_DEGREE
    tally = _sweep_pairs if sweep else _search_pairs
    pairs = tally(nbrs, col, distinct, n_heavy, min(cfg.distance_cap, mol.n_atoms - 1))
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
