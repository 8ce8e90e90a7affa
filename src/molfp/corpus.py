"""Deterministic synthetic molecule generator.

Builds random but valence-correct molecular graphs from ring templates
and chain growth, then renders them with a small standalone emitter
(kept independent of the canonical writer so corpus generation does not
lean on the code it is used to test).  Molecule i for a given seed is
stable regardless of the requested count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class _Node:
    label: str
    free: int
    aromatic: bool


@dataclass
class _Graph:
    nodes: list[_Node]
    bonds: list[tuple[int, int, str]]  # kind: single | double | triple | arom

    def add_node(self, label: str, free: int, aromatic: bool = False) -> int:
        self.nodes.append(_Node(label, free, aromatic))
        return len(self.nodes) - 1

    def add_bond(self, i: int, j: int, kind: str = "single") -> None:
        cost = {"single": 1, "arom": 1, "double": 2, "triple": 3}[kind]
        self.nodes[i].free -= cost
        self.nodes[j].free -= cost
        self.bonds.append((i, j, kind))


# (label, free valence, aromatic) per ring atom, plus ring bonds.
_RING_TEMPLATES: list[tuple[list[tuple[str, int, bool]], list[tuple[int, int, str]]]] = [
    # benzene
    ([("c", 1, True)] * 6, [(k, (k + 1) % 6, "arom") for k in range(6)]),
    # pyridine
    (
        [("n", 0, True)] + [("c", 1, True)] * 5,
        [(k, (k + 1) % 6, "arom") for k in range(6)],
    ),
    # pyrrole
    (
        [("[nH]", 0, True)] + [("c", 1, True)] * 4,
        [(k, (k + 1) % 5, "arom") for k in range(5)],
    ),
    # furan
    (
        [("o", 0, True)] + [("c", 1, True)] * 4,
        [(k, (k + 1) % 5, "arom") for k in range(5)],
    ),
    # thiophene
    (
        [("s", 0, True)] + [("c", 1, True)] * 4,
        [(k, (k + 1) % 5, "arom") for k in range(5)],
    ),
    # cyclohexane
    ([("C", 2, False)] * 6, [(k, (k + 1) % 6, "single") for k in range(6)]),
    # cyclopentane
    ([("C", 2, False)] * 5, [(k, (k + 1) % 5, "single") for k in range(5)]),
    # cyclopropane
    ([("C", 2, False)] * 3, [(k, (k + 1) % 3, "single") for k in range(3)]),
    # tetrahydrofuran
    (
        [("O", 0, False)] + [("C", 2, False)] * 4,
        [(k, (k + 1) % 5, "single") for k in range(5)],
    ),
    # piperidine
    (
        [("N", 1, False)] + [("C", 2, False)] * 5,
        [(k, (k + 1) % 6, "single") for k in range(6)],
    ),
    # naphthalene: fusion atoms 4 and 9 carry no free slot
    (
        [("c", 1, True)] * 4 + [("c", 0, True)] + [("c", 1, True)] * 4 + [("c", 0, True)],
        [(k, (k + 1) % 10, "arom") for k in range(10)] + [(4, 9, "arom")],
    ),
]

_CHAIN_ATOMS = [("C", 4), ("C", 4), ("C", 4), ("N", 3), ("O", 2), ("S", 2)]
_TERMINATORS = ["F", "Cl", "Br", "I", "O", "N"]


def _add_ring(g: _Graph, rng: random.Random) -> list[int]:
    atoms, ring_bonds = _RING_TEMPLATES[rng.randrange(len(_RING_TEMPLATES))]
    idx = [g.add_node(label, free, aromatic) for label, free, aromatic in atoms]
    for i, j, kind in ring_bonds:
        g.bonds.append((idx[i], idx[j], kind))
    return idx


def _add_chain(g: _Graph, rng: random.Random) -> list[int]:
    length = rng.randint(1, 4)
    idx: list[int] = []
    for _ in range(length):
        label, valence = _CHAIN_ATOMS[rng.randrange(len(_CHAIN_ATOMS))]
        cur = g.add_node(label, valence)
        if idx:
            prev = idx[-1]
            kind = "single"
            if (
                g.nodes[prev].label == "C"
                and label == "C"
                and g.nodes[prev].free >= 2
                and rng.random() < 0.2
            ):
                kind = "double"
            g.add_bond(prev, cur, kind)
        idx.append(cur)
    return idx


def _decorate(g: _Graph, rng: random.Random) -> None:
    for i in list(range(len(g.nodes))):
        node = g.nodes[i]
        if node.label == "C" and not node.aromatic and node.free >= 2 and rng.random() < 0.15:
            o = g.add_node("O", 2)
            g.add_bond(i, o, "double")
        node = g.nodes[i]
        if node.free >= 1 and rng.random() < 0.15:
            pick = rng.random()
            if pick < 0.55:
                t = g.add_node(_TERMINATORS[rng.randrange(len(_TERMINATORS))], 1)
                g.add_bond(i, t, "single")
            elif pick < 0.75 and node.label == "C":
                c = g.add_node("C", 4)
                n = g.add_node("N", 3)
                g.add_bond(i, c, "single")
                g.add_bond(c, n, "triple")
            elif pick < 0.9 and node.label == "C" and not node.aromatic and node.free >= 1:
                # carboxylate
                c = g.add_node("C", 4)
                o1 = g.add_node("O", 2)
                o2 = g.add_node("[O-]", 1)
                g.add_bond(i, c, "single")
                g.add_bond(c, o1, "double")
                g.add_bond(c, o2, "single")
            else:
                t = g.add_node("[13C]", 4) if rng.random() < 0.3 else g.add_node("[N+]", 4)
                g.add_bond(i, t, "single")


def _emit(g: _Graph) -> str:
    n = len(g.nodes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    bond_of = {}
    for bidx, (i, j, _) in enumerate(g.bonds):
        adj[i].append((j, bidx))
        adj[j].append((i, bidx))
        bond_of[(min(i, j), max(i, j))] = bidx

    def bond_sym(bidx: int) -> str:
        i, j, kind = g.bonds[bidx]
        if kind == "double":
            return "="
        if kind == "triple":
            return "#"
        if kind == "arom":
            return ""
        if g.nodes[i].aromatic and g.nodes[j].aromatic:
            return "-"
        return ""

    visit_seq = [-1] * n  # -1 until visited
    counter = iter(range(n))  # visit numbers, in order
    children: list[list[int]] = [[] for _ in range(n)]
    ring_partners: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for root in range(n):
        if visit_seq[root] >= 0:
            continue
        roots.append(root)
        visit_seq[root] = next(counter)
        stack = [(root, -1, iter(sorted(nbr for nbr, _ in adj[root])))]
        while stack:
            cur, parent, it = stack[-1]
            for nbr in it:
                if nbr == parent:
                    continue
                if visit_seq[nbr] >= 0:
                    if visit_seq[nbr] < visit_seq[cur] and cur not in ring_partners[nbr]:
                        ring_partners[nbr].append(cur)
                        ring_partners[cur].append(nbr)
                    continue
                visit_seq[nbr] = next(counter)
                children[cur].append(nbr)
                stack.append((nbr, cur, iter(sorted(x for x, _ in adj[nbr]))))
                break
            else:
                stack.pop()

    ring_digits: dict[tuple[int, int], int] = {}
    next_digit = 1

    def atom_text(i: int) -> str:
        nonlocal next_digit
        parts = [g.nodes[i].label]
        for partner in sorted(ring_partners[i], key=lambda p: visit_seq[p]):
            key = (min(i, partner), max(i, partner))
            if key not in ring_digits:
                ring_digits[key] = next_digit
                next_digit += 1
                parts.append(bond_sym(bond_of[key]))
            num = ring_digits[key]
            parts.append(str(num) if num < 10 else f"%{num:02d}")
        return "".join(parts)

    frags = []
    for root in roots:
        parts: list[str] = []
        ops: list[tuple] = [("atom", root, "")]
        while ops:
            op = ops.pop()
            if op[0] == "text":
                parts.append(op[1])
                continue
            _, idx, prefix = op
            parts.append(prefix + atom_text(idx))
            kids = children[idx]
            for t in range(len(kids) - 1, -1, -1):
                kid = kids[t]
                sym = bond_sym(bond_of[(min(idx, kid), max(idx, kid))])
                if t < len(kids) - 1:
                    ops.append(("text", ")"))
                    ops.append(("atom", kid, sym))
                    ops.append(("text", "("))
                else:
                    ops.append(("atom", kid, sym))
        frags.append("".join(parts))
    return ".".join(frags)


def _one_molecule(rng: random.Random) -> str:
    g = _Graph([], [])
    n_units = rng.randint(1, 3)
    for u in range(n_units):
        start = len(g.nodes)
        unit = _add_ring(g, rng) if rng.random() < 0.45 else _add_chain(g, rng)
        if u > 0:
            hosts = [i for i in range(start) if g.nodes[i].free >= 1]
            sockets = [i for i in unit if g.nodes[i].free >= 1]
            if hosts and sockets:
                g.add_bond(rng.choice(hosts), sockets[0], "single")
    _decorate(g, rng)
    if rng.random() < 0.05:
        g.add_node("[Na+]", 0)  # disconnected counter-ion fragment
    return _emit(g)


def synthetic_smiles(count: int, seed: int = 0) -> list[str]:
    """Generate ``count`` valid SMILES strings, deterministic in seed."""
    return [_one_molecule(random.Random(seed * 1_000_003 + i)) for i in range(count)]
