"""Seeded large molecules for the ``large_molecules`` workload.

The graphs are built here, not by molfp, and written as SMILES by a
small emitter of the benchmark's own that can start from any atom.  The
output checks use that to write one molecule from two start atoms.

Four families, each on a fixed ladder of sizes so that every seed gives
a set of the same make-up and cost; the seed picks only elements,
residues, fusion directions and substituents:

* chains: unbranched, C with some N, O and S
* macrocycles: one unbranched ring, elements as for chains
* peptides: linear, a seeded residue sequence
* fused polyaromatics: catacondensed benzenoids, the seed choosing
  linear or angular fusion per ring, with some pyridine-like n and
  methyl or hydroxyl groups

Chains and macrocycles stay unbranched so that their feature counts have
closed forms.  Every ring stays far below 1,000 atoms, where ring
perception runs out of recursion depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Atom counts of chains and macrocycles, residues of peptides and ring
# counts of polyaromatics (4k + 2 atoms for k rings).
FULL_LADDER = {
    "chain": (16, 24, 36, 48, 64, 80, 100, 120, 150, 180, 220, 260, 300),
    "macrocycle": (12, 20, 30, 40, 56, 72, 90, 110, 140, 170, 200, 240, 280),
    "peptide": (3, 5, 7, 10, 13, 16, 20, 24, 28, 32),
    "polyaromatic": (3, 5, 8, 11, 14, 18, 22, 26, 30, 35, 40),
}
SMOKE_LADDER = {
    "chain": (12,),
    "macrocycle": (14,),
    "peptide": (3,),
    "polyaromatic": (3,),
}

SINGLE, DOUBLE, AROMATIC = 1, 2, "ar"


@dataclass
class Graph:
    """Heavy-atom graph: SMILES atom labels and (i, j, order) bonds."""

    family: str
    atoms: list[str] = field(default_factory=list)
    bonds: list[tuple[int, int, object]] = field(default_factory=list)

    def add(self, label: str, bond_to: int | None = None, order=SINGLE) -> int:
        self.atoms.append(label)
        idx = len(self.atoms) - 1
        if bond_to is not None:
            self.bonds.append((bond_to, idx, order))
        return idx

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def _backbone_label(rng: random.Random, prev: str) -> str:
    if prev != "C":
        return "C"
    pick = rng.random()
    if pick < 0.08:
        return "N"
    if pick < 0.16:
        return "O"
    if pick < 0.2:
        return "S"
    return "C"


def chain(n: int, rng: random.Random) -> Graph:
    g = Graph("chain")
    prev = g.add("C")
    for k in range(1, n):
        label = "C" if k == n - 1 else _backbone_label(rng, g.atoms[prev])
        prev = g.add(label, prev)
    return g


def macrocycle(n: int, rng: random.Random) -> Graph:
    g = Graph("macrocycle")
    prev = g.add("C")
    for _ in range(1, n):
        prev = g.add(_backbone_label(rng, g.atoms[prev]), prev)
    g.bonds.append((0, prev, SINGLE))
    return g


# Side chains as (label, parent, order) with parent -1 for the alpha
# carbon, plus ring-closing bonds inside the side chain.
_SIDE_CHAINS = {
    "G": ([], []),
    "A": ([("C", -1, SINGLE)], []),
    "S": ([("C", -1, SINGLE), ("O", 0, SINGLE)], []),
    "C": ([("C", -1, SINGLE), ("S", 0, SINGLE)], []),
    "T": ([("C", -1, SINGLE), ("C", 0, SINGLE), ("O", 0, SINGLE)], []),
    "V": ([("C", -1, SINGLE), ("C", 0, SINGLE), ("C", 0, SINGLE)], []),
    "L": ([("C", -1, SINGLE), ("C", 0, SINGLE), ("C", 1, SINGLE), ("C", 1, SINGLE)], []),
    "K": (
        [("C", -1, SINGLE), ("C", 0, SINGLE), ("C", 1, SINGLE), ("C", 2, SINGLE), ("N", 3, SINGLE)],
        [],
    ),
    "D": ([("C", -1, SINGLE), ("C", 0, SINGLE), ("O", 1, DOUBLE), ("O", 1, SINGLE)], []),
    "F": (
        [("C", -1, SINGLE)] + [("c", k, AROMATIC) for k in range(6)],
        [(1, 6, AROMATIC)],
    ),
    "Y": (
        [("C", -1, SINGLE)] + [("c", k, AROMATIC) for k in range(6)] + [("O", 4, SINGLE)],
        [(1, 6, AROMATIC)],
    ),
    "H": (
        [("C", -1, SINGLE), ("c", 0, AROMATIC), ("c", 1, AROMATIC), ("n", 2, AROMATIC),
         ("c", 3, AROMATIC), ("[nH]", 4, AROMATIC)],
        [(1, 5, AROMATIC)],
    ),
}
_RESIDUES = "".join(sorted(_SIDE_CHAINS))


def peptide(residues: int, rng: random.Random) -> Graph:
    g = Graph("peptide")
    carbonyl = None
    for _ in range(residues):
        n = g.add("N", carbonyl)
        alpha = g.add("C", n)
        carbonyl = g.add("C", alpha)
        g.add("O", carbonyl, DOUBLE)
        atoms, closures = _SIDE_CHAINS[rng.choice(_RESIDUES)]
        local: list[int] = []
        for label, parent, order in atoms:
            local.append(g.add(label, alpha if parent < 0 else local[parent], order))
        for a, b, order in closures:
            g.bonds.append((local[a], local[b], order))
    g.add("O", carbonyl)
    return g


def polyaromatic(rings: int, rng: random.Random) -> Graph:
    """Catacondensed benzenoid: each new ring shares one edge with the
    ring before it; the shared edge is picked for linear or angular
    fusion."""
    g = Graph("polyaromatic")
    ring = [g.add("c") for _ in range(6)]
    for k in range(6):
        g.bonds.append((ring[k], ring[(k + 1) % 6], AROMATIC))
    free = [(ring[2], ring[3]), (ring[3], ring[4]), (ring[4], ring[5])]
    for _ in range(1, rings):
        a, b = rng.choice(free)
        new = [g.add("c") for _ in range(4)]
        path = [a] + new + [b]
        for x, y in zip(path, path[1:]):
            g.bonds.append((x, y, AROMATIC))
        free = [(new[0], new[1]), (new[1], new[2]), (new[2], new[3])]
    degree = [0] * g.n_atoms
    for i, j, _ in g.bonds:
        degree[i] += 1
        degree[j] += 1
    for idx in range(len(degree)):
        if degree[idx] != 2:
            continue
        pick = rng.random()
        if pick < 0.06:
            g.atoms[idx] = "n"
        elif pick < 0.12:
            g.add("C", idx)
        elif pick < 0.16:
            g.add("O", idx)
    return g


BUILDERS = {
    "chain": chain,
    "macrocycle": macrocycle,
    "peptide": peptide,
    "polyaromatic": polyaromatic,
}


def large_set(seed: int, ladder: dict[str, tuple[int, ...]]) -> list[Graph]:
    """One molecule per (family, size) slot; slot k of family f always
    draws from the same seeded stream, so the set is stable per seed."""
    out = []
    for family, sizes in ladder.items():
        for k, size in enumerate(sizes):
            rng = random.Random(f"{seed}:{family}:{k}")
            out.append(BUILDERS[family](size, rng))
    return out


def to_smiles(g: Graph, root: int = 0) -> str:
    """Write a connected graph as SMILES, depth first from ``root``,
    neighbours in index order; ring-closure digits are reused once
    closed."""
    n = g.n_atoms
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bidx, (i, j, _) in enumerate(g.bonds):
        adj[i].append((j, bidx))
        adj[j].append((i, bidx))
    for nbrs in adj:
        nbrs.sort()

    aromatic = [label[0].islower() or label.startswith("[n") for label in g.atoms]

    def bond_text(bidx: int) -> str:
        i, j, order = g.bonds[bidx]
        if order == DOUBLE:
            return "="
        if order == SINGLE and aromatic[i] and aromatic[j]:
            return "-"
        return ""

    # Depth-first tree; every other bond closes a ring.
    seen = [False] * n
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    closures: list[list[int]] = [[] for _ in range(n)]
    preorder = {root: 0}
    seen[root] = True
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        cur, via, it = stack[-1]
        for nbr, bidx in it:
            if bidx == via:
                continue
            if seen[nbr]:
                if bidx not in closures[nbr]:
                    closures[cur].append(bidx)
                    closures[nbr].append(bidx)
                continue
            seen[nbr] = True
            preorder[nbr] = len(preorder)
            children[cur].append((nbr, bidx))
            stack.append((nbr, bidx, iter(adj[nbr])))
            break
        else:
            stack.pop()
    if len(preorder) != n:
        raise ValueError("graph is not connected")

    open_digit: dict[int, int] = {}
    free_digits = list(range(99, 0, -1))

    def atom_text(idx: int) -> str:
        parts = [g.atoms[idx]]
        ends = sorted(closures[idx], key=lambda b: preorder[sum(g.bonds[b][:2]) - idx])
        for bidx in ends:
            if bidx in open_digit:
                digit = open_digit.pop(bidx)
                free_digits.append(digit)
                free_digits.sort(reverse=True)
            else:
                digit = free_digits.pop()
                open_digit[bidx] = digit
                parts.append(bond_text(bidx))
            parts.append(str(digit) if digit < 10 else f"%{digit}")
        return "".join(parts)

    out: list[str] = []
    ops: list[tuple] = [("atom", root, "")]
    while ops:
        op = ops.pop()
        if op[0] == "text":
            out.append(op[1])
            continue
        _, idx, prefix = op
        out.append(prefix + atom_text(idx))
        kids = children[idx]
        for t in range(len(kids) - 1, -1, -1):
            kid, bidx = kids[t]
            if t < len(kids) - 1:
                ops += [("text", ")"), ("atom", kid, bond_text(bidx)), ("text", "(")]
            else:
                ops.append(("atom", kid, bond_text(bidx)))
    return "".join(out)
