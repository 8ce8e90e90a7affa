"""Molecular graph data model and sanitization.

A :class:`MoleculeDraft` is the mutable product of parsing; ``sanitize``
turns it into an immutable :class:`Molecule` with implicit hydrogens,
ring perception, and validated aromaticity.  Everything downstream
(fingerprints, SMARTS matching, canonical writing) consumes Molecules
and never mutates them, so they are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import AromaticityError, ValenceError
from .hashing import TAG_ATOM_INVARIANT, stable_hash32

_SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)

_ATOMIC_NUMBER = {sym: i + 1 for i, sym in enumerate(_SYMBOLS)}

# Standard atomic weights (conventional values for interval elements,
# mass number of the most stable isotope for the radioactives).
_ATOMIC_WEIGHTS = (
    1.008, 4.003, 6.94, 9.012, 10.81, 12.011, 14.007, 15.999, 18.998, 20.180,
    22.990, 24.305, 26.982, 28.085, 30.974, 32.06, 35.45, 39.95, 39.098, 40.078,
    44.956, 47.867, 50.942, 51.996, 54.938, 55.845, 58.933, 58.693, 63.546, 65.38,
    69.723, 72.630, 74.922, 78.971, 79.904, 83.798, 85.468, 87.62, 88.906, 91.224,
    92.906, 95.95, 97.0, 101.07, 102.906, 106.42, 107.868, 112.414, 114.818, 118.710,
    121.760, 127.60, 126.904, 131.293, 132.905, 137.327, 138.905, 140.116, 140.908, 144.242,
    145.0, 150.36, 151.964, 157.25, 158.925, 162.500, 164.930, 167.259, 168.934, 173.045,
    174.967, 178.486, 180.948, 183.84, 186.207, 190.23, 192.217, 195.084, 196.967, 200.592,
    204.38, 207.2, 208.980, 209.0, 210.0, 222.0, 223.0, 226.0, 227.0, 232.038,
    231.036, 238.029, 237.0, 244.0, 243.0, 247.0, 247.0, 251.0, 252.0, 257.0,
    258.0, 259.0, 262.0, 267.0, 268.0, 271.0, 272.0, 270.0, 276.0, 281.0,
    280.0, 285.0, 284.0, 289.0, 288.0, 293.0, 294.0, 294.0,
)

MAX_ELEMENT = len(_SYMBOLS)

# SMILES/SMARTS organic subset: written bare, implicit hydrogens filled
# in.  Two-letter symbols are tried before one-letter ones.
ORGANIC_TWO = ("Cl", "Br")
ORGANIC_ONE = frozenset("BCNOPSFI")
ORGANIC_AROMATIC = frozenset("bcnops")
ORGANIC_SUBSET = frozenset(_ATOMIC_NUMBER[s] for s in (*ORGANIC_TWO, *ORGANIC_ONE))

# Lowercase (aromatic) symbols and the elements allowed to carry the flag.
LOWERCASE_AROMATIC = {
    "b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16, "se": 34, "as": 33,
}
AROMATIC_ELEMENTS = frozenset(LOWERCASE_AROMATIC.values())

HALOGENS = frozenset((9, 17, 35, 53))

# Permitted valences; elements absent from this table accept any valence
# and never receive implicit hydrogens.
PERMITTED_VALENCES: dict[int, tuple[int, ...]] = {
    1: (1,),
    5: (3,),
    6: (4,),
    7: (3,),
    8: (2,),
    9: (1,),
    15: (3, 5),
    16: (2, 4, 6),
    17: (1,),
    35: (1,),
    53: (1,),
}


def atomic_number(symbol: str) -> int | None:
    """Atomic number for an element symbol, or None if unknown."""
    return _ATOMIC_NUMBER.get(symbol)


def symbol_of(element: int) -> str:
    return _SYMBOLS[element - 1]


def atomic_weight(element: int) -> float:
    return _ATOMIC_WEIGHTS[element - 1]


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    # Members are singletons that compare by identity; hash them the same
    # way rather than through Enum's Python-level hash of the name.
    __hash__ = object.__hash__


# Each order's value as a plain dict lookup: ``BondOrder.value`` is an
# Enum property, several times slower to read in per-bond loops.
BOND_CODE = {order: order.value for order in BondOrder}


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: BondOrder


# Frozen values built over and over are shared, one instance per
# distinct argument tuple (argument types included).  Bonds repeat
# across molecules because atom indices are small: 600 corpus molecules
# give about 420 distinct bonds, the 47 large benchmark molecules about
# 1,150.  The bound keeps unusual input from growing the tables.
_shared_bond = lru_cache(maxsize=4096, typed=True)(Bond)


@dataclass
class AtomDraft:
    """Pre-sanitization atom as read from input text."""

    element: int
    formal_charge: int = 0
    isotope: int | None = None
    explicit_h: int | None = None
    aromatic_flag: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.element <= MAX_ELEMENT:
            raise ValueError(f"element out of range: {self.element}")
        if self.isotope is not None and self.isotope < 0:
            raise ValueError("negative isotope")
        if self.explicit_h is not None and self.explicit_h < 0:
            raise ValueError("negative explicit hydrogen count")


@dataclass
class MoleculeDraft:
    """Mutable molecular graph under construction by a parser."""

    atoms: list[AtomDraft] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    source_text: str | None = None
    stereo_ignored: bool = False
    _pairs: set[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._pairs = set()
        for b in self.bonds:
            pair = (b.i, b.j) if b.i < b.j else (b.j, b.i)
            if pair in self._pairs:
                raise ValueError(f"duplicate bond between atoms {b.i} and {b.j}")
            self._pairs.add(pair)

    def add_atom(self, atom: AtomDraft) -> int:
        self.atoms.append(atom)
        return len(self.atoms) - 1

    def add_bond(self, i: int, j: int, order: BondOrder) -> None:
        n = len(self.atoms)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bond endpoint out of range: ({i}, {j})")
        if i == j:
            raise ValueError(f"self-loop bond on atom {i}")
        pair = (i, j) if i < j else (j, i)
        if pair in self._pairs:
            raise ValueError(f"duplicate bond between atoms {i} and {j}")
        self._pairs.add(pair)
        self.bonds.append(_shared_bond(i, j, order))


@dataclass(frozen=True)
class Atom:
    """Sanitized atom; ``degree`` counts heavy (non-hydrogen) neighbors."""

    element: int
    charge: int
    isotope: int | None
    implicit_h: int
    aromatic: bool
    degree: int


_shared_atom = lru_cache(maxsize=4096, typed=True)(Atom)


@dataclass(frozen=True)
class RingInfo:
    """Minimum cycle basis plus derived per-atom/per-bond membership."""

    rings: tuple[tuple[int, ...], ...]
    atom_in_ring: tuple[bool, ...]
    bond_in_ring: tuple[bool, ...]
    atom_ring_count: tuple[int, ...]
    smallest_ring_size: tuple[int | None, ...]


@dataclass(frozen=True)
class Molecule:
    """Immutable sanitized molecular graph."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    neighbors: tuple[tuple[tuple[int, int], ...], ...]  # (neighbor, bond index)
    rings: RingInfo
    total_h: tuple[int, ...]  # implicit + explicit hydrogen neighbors
    source_text: str | None = None

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def _adjacency(n_atoms: int, bonds: list[Bond] | tuple[Bond, ...]) -> list[list[tuple[int, int]]]:
    """Per atom, its (neighbour, bond index) pairs in ascending order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for bidx, b in enumerate(bonds):
        adj[b.i].append((b.j, bidx))
        adj[b.j].append((b.i, bidx))
    for nbrs in adj:
        nbrs.sort()
    return adj


def _normalize_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical rotation/direction: start at the smallest atom, pick the
    lexicographically smaller of the two traversal directions."""
    start = cycle.index(min(cycle))
    forward = cycle[start:] + cycle[:start]
    return min(forward, forward[:1] + forward[:0:-1])


def _ring_key(cycle: tuple[int, ...]) -> tuple:
    return (len(cycle), tuple(sorted(cycle)), cycle)


def _cycle_edge_mask(cycle: tuple[int, ...], bond_of: dict[tuple[int, int], int]) -> int:
    mask = 0
    for prev, a in zip(cycle[-1:] + cycle[:-1], cycle):
        mask |= 1 << bond_of[prev, a]
    return mask


def _gf2_add(mask: int, basis: dict[int, int]) -> bool:
    """Insert an edge-set vector into a GF(2) xor basis keyed by leading bit.

    Returns True when the vector was independent (and is now included).
    """
    while mask:
        lead = mask.bit_length() - 1
        if lead not in basis:
            basis[lead] = mask
            return True
        mask ^= basis[lead]
    return False


def _shortest_cycles_through(
    u: int, v: int, skip_bond: int, adj: dict[int, list[tuple[int, int]]]
) -> list[tuple[int, ...]]:
    """All shortest cycles through bond (u, v), found by BFS from u with the
    bond removed, then enumerating every shortest u-v path."""
    dist = {u: 0}
    queue = [u]
    while queue and v not in dist:
        nxt: list[int] = []
        for cur in queue:
            for nbr, bidx in adj[cur]:
                if bidx != skip_bond and nbr not in dist:
                    dist[nbr] = dist[cur] + 1
                    nxt.append(nbr)
        queue = nxt
    # Depth-first walk from v down the distance layers to u, with an
    # explicit stack so that long rings cannot exhaust the recursion
    # limit; path[k] holds the atom at distance dist[v] - k.
    paths: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [v]
    while stack:
        cur = stack.pop()
        del path[dist[v] - dist[cur] :]
        path.append(cur)
        if cur == u:
            paths.append(tuple(reversed(path)))
            continue
        for nbr, bidx in reversed(adj[cur]):
            if bidx != skip_bond and dist.get(nbr) == dist[cur] - 1:
                stack.append(nbr)
    return paths


def perceive_rings(n_atoms: int, bonds: list[Bond] | tuple[Bond, ...]) -> RingInfo:
    """Perceive a minimum cycle basis (Downs et al., J. Chem. Inf. Comput.
    Sci. 29:172, 1989; Figueras, J. Chem. Inf. Comput. Sci. 36:986, 1996).

    Each non-tree bond of a BFS spanning forest closes one fundamental
    cycle; the bonds on those cycles are the ring bonds, and every other
    bond is a bridge, which no cycle uses.  A fundamental cycle sharing no
    atom with another is a ring system of cyclomatic number 1 and is its
    own ring.  For every other non-tree bond, take the smallest cycle
    through it over ring bonds only, ties broken by the smallest sorted
    atom tuple.  If those cycles fall short of the cycle space's rank
    (bonds - atoms + components), as under some atom orders in fused or
    bridged systems, the forest's fundamental cycles complete the basis.
    """
    adj = _adjacency(n_atoms, bonds)
    n_bonds = len(bonds)

    # BFS spanning forest, one tree per component, rooted at its
    # smallest atom.
    parent = [-1] * n_atoms
    parent_bond = [-1] * n_atoms
    depth = [-1] * n_atoms  # -1 until visited
    n_components = 0
    for root in range(n_atoms):
        if depth[root] >= 0:
            continue
        n_components += 1
        depth[root] = 0
        queue = [root]
        while queue:
            nxt: list[int] = []
            for cur in queue:
                below = depth[cur] + 1
                for nbr, bidx in adj[cur]:
                    if depth[nbr] < 0:
                        parent[nbr] = cur
                        parent_bond[nbr] = bidx
                        depth[nbr] = below
                        nxt.append(nbr)
            queue = nxt
    if n_bonds - n_atoms + n_components == 0:
        return RingInfo(
            rings=(),
            atom_in_ring=(False,) * n_atoms,
            bond_in_ring=(False,) * n_bonds,
            atom_ring_count=(0,) * n_atoms,
            smallest_ring_size=(None,) * n_atoms,
        )

    # Fundamental cycle of each non-tree bond: up from both ends to the
    # lowest common ancestor, marking the ring bonds on the way.
    ring_bond = [False] * n_bonds
    fundamentals: list[tuple[int, tuple[int, ...]]] = []
    cycles_at = [0] * n_atoms
    for bidx, b in enumerate(bonds):
        x, y = b.i, b.j
        if parent_bond[x] == bidx or parent_bond[y] == bidx:
            continue
        ring_bond[bidx] = True
        up, down = [], []
        while x != y:
            if depth[x] >= depth[y]:
                up.append(x)
                ring_bond[parent_bond[x]] = True
                x = parent[x]
            else:
                down.append(y)
                ring_bond[parent_bond[y]] = True
                y = parent[y]
        up.append(x)
        cycle = tuple(up + down[::-1])
        for a in cycle:
            cycles_at[a] += 1
        fundamentals.append((bidx, cycle))
    cyclomatic = len(fundamentals)

    # A later duplicate of a bond wins, as the edge masks have always had it.
    bond_of: dict[tuple[int, int], int] = {}
    for bidx, flag in enumerate(ring_bond):
        if flag:
            b = bonds[bidx]
            bond_of[b.i, b.j] = bond_of[b.j, b.i] = bidx

    rings: list[tuple[int, ...]] = []
    joined: list[tuple[int, tuple[int, ...]]] = []  # cycles sharing an atom
    for bidx, cycle in fundamentals:
        if all(cycles_at[a] == 1 for a in cycle):
            rings.append(_normalize_cycle(cycle))
        else:
            joined.append((bidx, cycle))

    if joined:
        ring_atoms = {a for _, cycle in joined for a in cycle}
        ring_adj = {a: [(x, bidx) for x, bidx in adj[a] if ring_bond[bidx]] for a in ring_atoms}
        candidates = set()
        for bidx, _ in joined:
            b = bonds[bidx]
            paths = _shortest_cycles_through(b.i, b.j, bidx, ring_adj)
            candidates.add(
                min((_normalize_cycle(p) for p in paths), key=lambda c: (tuple(sorted(c)), c))
            )
        basis: dict[int, int] = {}
        for cycle in sorted(candidates, key=_ring_key):
            if _gf2_add(_cycle_edge_mask(cycle, bond_of), basis):
                rings.append(cycle)

        if len(rings) < cyclomatic:
            # Complete the basis with fundamental cycles of the forest.
            for cycle in sorted({_normalize_cycle(c) for _, c in joined}, key=_ring_key):
                if len(rings) == cyclomatic:
                    break
                if _gf2_add(_cycle_edge_mask(cycle, bond_of), basis):
                    rings.append(cycle)

    rings.sort(key=_ring_key)

    atom_in_ring = [False] * n_atoms
    bond_in_ring = [False] * n_bonds
    ring_count = [0] * n_atoms
    smallest: list[int | None] = [None] * n_atoms
    for cycle in rings:
        size = len(cycle)
        prev = cycle[-1]
        for a in cycle:
            atom_in_ring[a] = True
            ring_count[a] += 1
            if smallest[a] is None:  # rings are sorted by size
                smallest[a] = size
            bond_in_ring[bond_of[prev, a]] = True
            prev = a
    return RingInfo(
        rings=tuple(rings),
        atom_in_ring=tuple(atom_in_ring),
        bond_in_ring=tuple(bond_in_ring),
        atom_ring_count=tuple(ring_count),
        smallest_ring_size=tuple(smallest),
    )


@lru_cache(maxsize=4096, typed=True)
def permitted_valences(element: int, charge: int) -> tuple[int, ...] | None:
    """Charge-adjusted permitted valences, ascending; None means any
    valence is fine.

    Lone-pair elements (N, P, O, S) gain a slot per positive charge and
    lose one per negative; carbon loses a slot for either ion; boron
    gains a slot when negative.  Halogens and hydrogen are unadjusted.
    """
    base = PERMITTED_VALENCES.get(element)
    if base is None:
        return None
    if element in (7, 8, 15, 16):
        shift = charge
    elif element == 6:
        shift = -abs(charge)
    elif element == 5:
        shift = -charge
    else:
        shift = 0
    vals = tuple(v + shift for v in base if v + shift >= 0)
    return vals if vals else (0,)


def default_implicit_h(
    element: int, charge: int, n_aromatic_bonds: int, other_order_sum: int
) -> int | None:
    """Implicit hydrogen count the valence model assigns to a bare atom.

    Aromatic bonds count 1.5 each with the half rounded down; when that
    accounting exceeds every permitted valence the atom is treated as an
    in-ring lone-pair donor and aromatic bonds count 1 each (furan-style
    oxygen).  Returns None when no accounting fits any permitted valence.
    """
    vals = permitted_valences(element, charge)
    if vals is None:
        return 0
    primary = other_order_sum + (3 * n_aromatic_bonds) // 2
    for v in vals:
        if v >= primary:
            return v - primary
    if n_aromatic_bonds:
        fallback = other_order_sum + n_aromatic_bonds
        for v in vals:
            if v >= fallback:
                return v - fallback
    return None


def sanitize(draft: MoleculeDraft) -> Molecule:
    """Validate a draft and build the immutable molecule.

    Checks performed: ring membership of aromatic atoms and bonds,
    demotion of non-ring aromatic bonds between aromatic atoms (biphenyl
    style) to single, and the valence model that assigns implicit
    hydrogens.  Raises ValenceError or AromaticityError on violations.

    One loop over the bonds tallies each atom's aromatic bonds and other
    bond-order sum; valences come from a table keyed by (element, charge),
    and equal atoms are one shared ``Atom`` instance.
    """
    drafts = draft.atoms
    n = len(drafts)
    # Bonds appended to draft.bonds directly skip add_bond's checks.
    pairs = set()
    for b in draft.bonds:
        if not (0 <= b.i < n and 0 <= b.j < n) or b.i == b.j:
            raise ValueError("draft bond endpoints invalid")
        pair = (b.i, b.j) if b.i < b.j else (b.j, b.i)
        if pair in pairs:
            raise ValueError(f"duplicate bond between atoms {b.i} and {b.j}")
        pairs.add(pair)
    rings = perceive_rings(n, draft.bonds)

    bonds = list(draft.bonds)
    n_arom = [0] * n
    other_sum = [0] * n
    bond_in_ring = rings.bond_in_ring
    for bidx, b in enumerate(bonds):
        order = b.order
        if order is BondOrder.AROMATIC:
            if not (drafts[b.i].aromatic_flag and drafts[b.j].aromatic_flag):
                raise AromaticityError(
                    f"aromatic bond between non-aromatic atoms {b.i} and {b.j}"
                )
            if bond_in_ring[bidx]:
                n_arom[b.i] += 1
                n_arom[b.j] += 1
                continue
            bonds[bidx] = _shared_bond(b.i, b.j, BondOrder.SINGLE)
            value = 1
        else:
            value = 1 if order is BondOrder.SINGLE else 2 if order is BondOrder.DOUBLE else 3
        other_sum[b.i] += value
        other_sum[b.j] += value

    atom_in_ring = rings.atom_in_ring
    for idx, a in enumerate(drafts):
        if a.aromatic_flag and not atom_in_ring[idx]:
            raise AromaticityError(f"aromatic atom {idx} is not in any ring")

    adj = _adjacency(n, bonds)
    heavy_only = all(a.element != 1 for a in drafts)
    atoms: list[Atom] = []
    total_h: list[int] = []
    for idx, a in enumerate(drafts):
        # A bracket atom keeps its written hydrogen count, but the total
        # must still fit a permitted valence.
        h = a.explicit_h
        bond_sum = other_sum[idx] + (h or 0)
        implicit = default_implicit_h(a.element, a.formal_charge, n_arom[idx], bond_sum)
        if implicit is None:
            vals = permitted_valences(a.element, a.formal_charge)
            raise ValenceError(
                f"atom {idx} ({symbol_of(a.element)}): bond order sum "
                f"{bond_sum + (3 * n_arom[idx]) // 2} exceeds permitted valences {vals}"
            )
        if h is not None:
            implicit = h
        nbrs = adj[idx]
        if heavy_only:
            degree = len(nbrs)
        else:
            degree = sum(1 for nbr, _ in nbrs if drafts[nbr].element != 1)
        # Positional, in Atom's field order: keyword arguments would make
        # the cache key cost about as much as building the Atom.
        atoms.append(
            _shared_atom(a.element, a.formal_charge, a.isotope, implicit, a.aromatic_flag, degree)
        )
        # Neighbours that are not heavy atoms are hydrogens.
        total_h.append(implicit + len(nbrs) - degree)

    return Molecule(
        atoms=tuple(atoms),
        bonds=tuple(bonds),
        neighbors=tuple(map(tuple, adj)),
        rings=rings,
        total_h=tuple(total_h),
        source_text=draft.source_text,
    )


def initial_atom_invariant(mol: Molecule, idx: int) -> int:
    """Seed code for circular fingerprints: a stable hash of the atom's
    local tuple (element, heavy degree, total H, charge, isotope,
    in-ring flag, aromatic flag)."""
    a = mol.atoms[idx]
    return stable_hash32(
        TAG_ATOM_INVARIANT,
        a.element,
        a.degree,
        mol.total_h[idx],
        a.charge,
        a.isotope if a.isotope is not None else 0,
        int(mol.rings.atom_in_ring[idx]),
        int(a.aromatic),
    )
