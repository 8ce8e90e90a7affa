"""Brute-force oracles, kept independent of the library's algorithms.

Everything here recomputes results from first principles (exhaustive
enumeration, permutation search, tree-walk predicate evaluation) so the
production code paths they check share nothing with them beyond the
data model.
"""

from __future__ import annotations

import itertools
import math
import random

from molfp.chem import (
    BOND_CODE,
    MAX_ELEMENT,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    MoleculeDraft,
    RingInfo,
    default_implicit_h,
    permitted_valences,
    symbol_of,
)
from molfp.errors import AromaticityError, ValenceError
from molfp.hashing import (
    TAG_ATOM_INVARIANT,
    TAG_ATOM_PAIR,
    TAG_ATOM_TYPE,
    TAG_ECFP,
    TAG_PATH,
    TAG_PATH_ATOM,
    stable_hash32,
)
from molfp.smarts import And, MoleculeView, Not, Or, Prim, SmartsPattern


# ---------------------------------------------------------------- cycles

def enumerate_simple_cycles(n_atoms: int, edges: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    """All simple cycles, each normalized to start at its smallest atom
    and run in the lexicographically smaller direction."""
    adj: dict[int, set[int]] = {i: set() for i in range(n_atoms)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    cycles: set[tuple[int, ...]] = set()

    def normalize(cycle: tuple[int, ...]) -> tuple[int, ...]:
        k = len(cycle)
        start = cycle.index(min(cycle))
        fwd = tuple(cycle[(start + t) % k] for t in range(k))
        bwd = tuple(cycle[(start - t) % k] for t in range(k))
        return min(fwd, bwd)

    def dfs(start: int, current: int, path: list[int], onpath: set[int]) -> None:
        for nbr in adj[current]:
            if nbr == start and len(path) >= 3:
                cycles.add(normalize(tuple(path)))
            elif nbr > start and nbr not in onpath:
                path.append(nbr)
                onpath.add(nbr)
                dfs(start, nbr, path, onpath)
                onpath.remove(nbr)
                path.pop()

    for s in range(n_atoms):
        dfs(s, s, [s], {s})
    return cycles


def _edge_mask(cycle: tuple[int, ...], edge_index: dict[tuple[int, int], int]) -> int:
    mask = 0
    for t in range(len(cycle)):
        a, b = cycle[t], cycle[(t + 1) % len(cycle)]
        mask |= 1 << edge_index[(min(a, b), max(a, b))]
    return mask


def _gf2_insert(mask: int, basis: dict[int, int]) -> bool:
    while mask:
        lead = mask.bit_length() - 1
        if lead not in basis:
            basis[lead] = mask
            return True
        mask ^= basis[lead]
    return False


def greedy_min_cycle_basis(
    n_atoms: int, edges: list[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Minimum cycle basis by greedy matroid selection over all simple
    cycles sorted by (length, sorted atoms, traversal)."""
    edge_index = {(min(i, j), max(i, j)): idx for idx, (i, j) in enumerate(edges)}
    cycles = sorted(
        enumerate_simple_cycles(n_atoms, edges),
        key=lambda c: (len(c), tuple(sorted(c)), c),
    )
    basis: dict[int, int] = {}
    chosen = []
    for cyc in cycles:
        if _gf2_insert(_edge_mask(cyc, edge_index), basis):
            chosen.append(cyc)
    return chosen


def cyclomatic_number(n_atoms: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(n_atoms))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n_atoms
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            comps -= 1
    return len(edges) - n_atoms + comps


def independent_cycles(edges: list[tuple[int, int]], cycles) -> bool:
    edge_index = {(min(i, j), max(i, j)): idx for idx, (i, j) in enumerate(edges)}
    basis: dict[int, int] = {}
    return all(_gf2_insert(_edge_mask(c, edge_index), basis) for c in cycles)


# -------------------------------------------------------------- sanitize
#
# The direct sanitize: bonds checked in a loop of their own, adjacency
# built apart from it, ring membership read off the basis, each atom
# built and valence-checked on its own.  The library's sanitize must
# give equal molecules and raise the same errors.

def _oracle_adjacency(n_atoms: int, bonds) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for bidx, b in enumerate(bonds):
        adj[b.i].append((b.j, bidx))
        adj[b.j].append((b.i, bidx))
    for nbrs in adj:
        nbrs.sort()
    return adj


def _oracle_normalize_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    start = cycle.index(min(cycle))
    forward = cycle[start:] + cycle[:start]
    return min(forward, forward[:1] + forward[:0:-1])


def _oracle_ring_key(cycle: tuple[int, ...]) -> tuple:
    return (len(cycle), tuple(sorted(cycle)), cycle)


def _oracle_cycle_edge_mask(cycle: tuple[int, ...], bond_of: dict[tuple[int, int], int]) -> int:
    mask = 0
    for prev, a in zip(cycle[-1:] + cycle[:-1], cycle):
        mask |= 1 << bond_of[prev, a]
    return mask


def _oracle_shortest_cycles_through(
    u: int, v: int, skip_bond: int, adj: dict[int, list[tuple[int, int]]]
) -> list[tuple[int, ...]]:
    """Every shortest u-v path avoiding ``skip_bond``, as atom tuples."""
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


def perceive_rings_oracle(n_atoms: int, bonds) -> RingInfo:
    """Minimum cycle basis from the fundamental cycles of a BFS forest
    and the shortest cycle through each joined non-tree bond; membership
    fields read off the chosen rings."""
    adj = _oracle_adjacency(n_atoms, bonds)
    n_bonds = len(bonds)
    parent = [-1] * n_atoms
    parent_bond = [-1] * n_atoms
    depth = [-1] * n_atoms
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
                for nbr, bidx in adj[cur]:
                    if depth[nbr] < 0:
                        parent[nbr] = cur
                        parent_bond[nbr] = bidx
                        depth[nbr] = depth[cur] + 1
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

    bond_of: dict[tuple[int, int], int] = {}
    for bidx, flag in enumerate(ring_bond):
        if flag:
            b = bonds[bidx]
            bond_of[b.i, b.j] = bond_of[b.j, b.i] = bidx

    rings: list[tuple[int, ...]] = []
    joined: list[tuple[int, tuple[int, ...]]] = []
    for bidx, cycle in fundamentals:
        if all(cycles_at[a] == 1 for a in cycle):
            rings.append(_oracle_normalize_cycle(cycle))
        else:
            joined.append((bidx, cycle))

    if joined:
        ring_atoms = {a for _, cycle in joined for a in cycle}
        ring_adj = {a: [(x, bidx) for x, bidx in adj[a] if ring_bond[bidx]] for a in ring_atoms}
        candidates = set()
        for bidx, _ in joined:
            b = bonds[bidx]
            paths = _oracle_shortest_cycles_through(b.i, b.j, bidx, ring_adj)
            candidates.add(
                min((_oracle_normalize_cycle(p) for p in paths), key=lambda c: (tuple(sorted(c)), c))
            )
        basis: dict[int, int] = {}
        for cycle in sorted(candidates, key=_oracle_ring_key):
            if _gf2_insert(_oracle_cycle_edge_mask(cycle, bond_of), basis):
                rings.append(cycle)
        if len(rings) < cyclomatic:
            for cycle in sorted({_oracle_normalize_cycle(c) for _, c in joined}, key=_oracle_ring_key):
                if len(rings) == cyclomatic:
                    break
                if _gf2_insert(_oracle_cycle_edge_mask(cycle, bond_of), basis):
                    rings.append(cycle)

    rings.sort(key=_oracle_ring_key)
    atom_in_ring = [False] * n_atoms
    bond_in_ring = [False] * n_bonds
    ring_count = [0] * n_atoms
    smallest: list[int | None] = [None] * n_atoms
    for cycle in rings:
        prev = cycle[-1]
        for a in cycle:
            atom_in_ring[a] = True
            ring_count[a] += 1
            if smallest[a] is None:
                smallest[a] = len(cycle)
            bond_in_ring[bond_of[prev, a]] = True
            prev = a
    return RingInfo(
        rings=tuple(rings),
        atom_in_ring=tuple(atom_in_ring),
        bond_in_ring=tuple(bond_in_ring),
        atom_ring_count=tuple(ring_count),
        smallest_ring_size=tuple(smallest),
    )


def sanitize_oracle(draft: MoleculeDraft) -> Molecule:
    """The molecule ``sanitize`` must build from ``draft``, or the error
    it must raise: bond checks, then aromatic bonds, then every atom's
    own checks, then valences, each in index order."""
    drafts = draft.atoms
    n = len(drafts)
    pairs = set()
    for b in draft.bonds:
        if not (0 <= b.i < n and 0 <= b.j < n) or b.i == b.j:
            raise ValueError(f"invalid bond endpoints ({b.i}, {b.j})")
        pair = (min(b.i, b.j), max(b.i, b.j))
        if pair in pairs:
            raise ValueError(f"duplicate bond between atoms {b.i} and {b.j}")
        pairs.add(pair)
    adj = _oracle_adjacency(n, draft.bonds)
    rings = perceive_rings_oracle(n, draft.bonds)

    bonds = list(draft.bonds)
    n_arom = [0] * n
    other_sum = [0] * n
    for bidx, b in enumerate(bonds):
        if b.order is BondOrder.AROMATIC:
            if not (drafts[b.i].aromatic_flag and drafts[b.j].aromatic_flag):
                raise AromaticityError(
                    f"aromatic bond between non-aromatic atoms {b.i} and {b.j}"
                )
            if rings.bond_in_ring[bidx]:
                n_arom[b.i] += 1
                n_arom[b.j] += 1
                continue
            bonds[bidx] = Bond(b.i, b.j, BondOrder.SINGLE)
            value = 1
        else:
            value = {BondOrder.SINGLE: 1, BondOrder.DOUBLE: 2, BondOrder.TRIPLE: 3}[b.order]
        other_sum[b.i] += value
        other_sum[b.j] += value

    for idx, a in enumerate(drafts):
        if not 1 <= a.element <= MAX_ELEMENT:
            raise ValueError(f"atom {idx}: element out of range: {a.element}")
        if a.isotope is not None and a.isotope < 0:
            raise ValueError(f"atom {idx}: negative isotope")
        if a.explicit_h is not None and a.explicit_h < 0:
            raise ValueError(f"atom {idx}: negative explicit hydrogen count")
        if a.aromatic_flag and not rings.atom_in_ring[idx]:
            raise AromaticityError(f"aromatic atom {idx} is not in any ring")

    atoms: list[Atom] = []
    total_h: list[int] = []
    for idx, a in enumerate(drafts):
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
        degree = sum(1 for nbr, _ in adj[idx] if drafts[nbr].element != 1)
        atoms.append(Atom(a.element, a.formal_charge, a.isotope, implicit, a.aromatic_flag, degree))
        total_h.append(implicit + len(adj[idx]) - degree)

    return Molecule(
        atoms=tuple(atoms),
        bonds=tuple(bonds),
        neighbors=tuple(map(tuple, adj)),
        rings=rings,
        total_h=tuple(total_h),
        source_text=draft.source_text,
    )


# ---------------------------------------------------------- isomorphism

def bond_between(mol: Molecule, i: int, j: int) -> Bond | None:
    """The bond joining atoms i and j, or None."""
    for nbr, bidx in mol.neighbors[i]:
        if nbr == j:
            return mol.bonds[bidx]
    return None


def _atom_key(mol: Molecule, i: int):
    a = mol.atoms[i]
    isotope = -1 if a.isotope is None else a.isotope
    return (a.element, a.charge, isotope, a.implicit_h, a.aromatic, a.degree)


def are_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Attribute- and bond-order-preserving graph isomorphism by
    backtracking over compatible atom assignments."""
    n = a.n_atoms
    if n != b.n_atoms or len(a.bonds) != len(b.bonds):
        return False
    if sorted(_atom_key(a, i) for i in range(n)) != sorted(
        _atom_key(b, i) for i in range(n)
    ):
        return False

    def bond_order(mol: Molecule, i: int, j: int):
        bond = bond_between(mol, i, j)
        return bond.order if bond else None

    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or _atom_key(a, i) != _atom_key(b, j):
                continue
            ok = True
            for i2 in range(i):
                if bond_order(a, i, i2) != bond_order(b, j, mapping[i2]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            used[j] = False
            mapping[i] = -1
        return False

    return extend(0)


def permute_draft(draft: MoleculeDraft, perm: list[int]) -> MoleculeDraft:
    """Relabel atoms: atom at old index i moves to index perm[i]."""
    n = len(draft.atoms)
    atoms = [None] * n
    for i, atom in enumerate(draft.atoms):
        atoms[perm[i]] = atom
    bonds = [Bond(perm[b.i], perm[b.j], b.order) for b in draft.bonds]
    return MoleculeDraft(atoms=list(atoms), bonds=bonds, source_text=draft.source_text)


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ------------------------------------------------------ canonical ranks

def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def seed_ranks_oracle(mol: Molecule) -> list[int]:
    """Dense ranks of the atom invariants that seed canonical ranking."""
    return _dense_ranks(
        [(a.element, a.degree, a.charge, a.implicit_h, a.aromatic) for a in mol.atoms]
    )


def refine_oracle(mol: Molecule, ranks: list[int]) -> list[int]:
    """Full rounds: every atom's (rank, sorted (bond code, neighbour
    rank)) signature recomputed, dense-ranked, until nothing changes."""
    codes = [b.order.value for b in mol.bonds]
    while True:
        sigs = [
            (ranks[i], tuple(sorted((codes[bidx], ranks[nbr]) for nbr, bidx in nbrs)))
            for i, nbrs in enumerate(mol.neighbors)
        ]
        new = _dense_ranks(sigs)
        if new == ranks:
            return ranks
        ranks = new


def canonical_ranks_oracle(mol: Molecule) -> list[int]:
    """Refine the seed ranks; while ranks tie, place the smallest index of
    the lowest tied rank before the rest of its class and refine again
    from scratch."""
    n = mol.n_atoms
    ranks = refine_oracle(mol, seed_ranks_oracle(mol))
    while len(set(ranks)) < n:
        by_rank: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            by_rank.setdefault(r, []).append(i)
        tied = min(r for r, members in by_rank.items() if len(members) > 1)
        chosen = min(by_rank[tied])
        bumped = [r * 2 + (0 if i == chosen else 1) for i, r in enumerate(ranks)]
        ranks = refine_oracle(mol, _dense_ranks(bumped))
    return ranks


# --------------------------------------------------------------- smarts

def eval_atom_expr(expr, mol: Molecule, i: int) -> bool:
    """Tree-walk evaluation of an atom expression straight off the
    Molecule (independent of the matcher's per-molecule bitmasks)."""
    if isinstance(expr, Prim):
        a = mol.atoms[i]
        kind, value = expr.kind, expr.value
        if kind == "element":
            return a.element == value
        if kind == "symbol_aliphatic":
            return a.element == value and not a.aromatic
        if kind == "symbol_aromatic":
            return a.element == value and a.aromatic
        if kind == "aromatic":
            return a.aromatic
        if kind == "aliphatic":
            return not a.aromatic
        if kind == "wildcard":
            return True
        if kind == "degree":
            return a.degree == value
        if kind == "total_h":
            return mol.total_h[i] == value
        if kind == "connectivity":
            return len(mol.neighbors[i]) + a.implicit_h == value
        if kind == "in_ring":
            return mol.rings.atom_in_ring[i]
        if kind == "ring_count":
            return mol.rings.atom_ring_count[i] == value
        if kind == "ring_size":
            return mol.rings.smallest_ring_size[i] == value
        if kind == "charge":
            return a.charge == value
        raise AssertionError(kind)
    if isinstance(expr, Not):
        return not eval_atom_expr(expr.arg, mol, i)
    if isinstance(expr, And):
        return all(eval_atom_expr(e, mol, i) for e in expr.args)
    if isinstance(expr, Or):
        return any(eval_atom_expr(e, mol, i) for e in expr.args)
    raise AssertionError(expr)


def eval_bond_expr(expr, mol: Molecule, bidx: int) -> bool:
    if isinstance(expr, Prim):
        order = mol.bonds[bidx].order
        kind = expr.kind
        if kind == "single":
            return order is BondOrder.SINGLE
        if kind == "double":
            return order is BondOrder.DOUBLE
        if kind == "triple":
            return order is BondOrder.TRIPLE
        if kind == "aromatic":
            return order is BondOrder.AROMATIC
        if kind == "any":
            return True
        if kind == "ring":
            return mol.rings.bond_in_ring[bidx]
        raise AssertionError(kind)
    if isinstance(expr, Not):
        return not eval_bond_expr(expr.arg, mol, bidx)
    if isinstance(expr, And):
        return all(eval_bond_expr(e, mol, bidx) for e in expr.args)
    if isinstance(expr, Or):
        return any(eval_bond_expr(e, mol, bidx) for e in expr.args)
    raise AssertionError(expr)


def brute_force_matches(pattern: SmartsPattern, mol: Molecule) -> set[tuple[int, ...]]:
    """Every injective query-to-target assignment satisfying all atom
    and bond predicates, by exhaustive permutation search."""
    qn = pattern.n_atoms
    n = mol.n_atoms
    if qn > n:
        return set()
    found = set()
    for combo in itertools.permutations(range(n), qn):
        ok = all(
            eval_atom_expr(pattern.atom_exprs[q], mol, combo[q]) for q in range(qn)
        )
        if not ok:
            continue
        for bpos, (qi, qj) in enumerate(pattern.bond_list):
            bond = bond_between(mol, combo[qi], combo[qj])
            if bond is None:
                ok = False
                break
            bidx = mol.bonds.index(bond)
            if not eval_bond_expr(pattern.bond_exprs[bpos], mol, bidx):
                ok = False
                break
        if ok:
            found.add(combo)
    return found


# A hand-written SMARTS key set for checking the substructure family:
# repeated subexpressions, nested !/&/, operators, "aromatic" and its
# negation as both atom and bond expressions, one-atom keys with several
# matched atoms, a chain of 34 atoms (more than any seed-13 corpus
# molecule has) and keys no atom satisfies.
HAND_KEY_TEXTS = (
    "[C,N;R]",
    "[C,N;!R]",
    "[C,N;R]~[C,N;R]",
    "[!#6;!#1]",
    "[!#6;!#1]~[!#6;!#1]",
    "[!!C]",
    "[!C&!N,O;!R0&D2,D3]",
    "[C&!R,N&R;!D3]-,=[#6,!#7]",
    "a",
    "a:a",
    "[!a]",
    "[!a]!:[!a]",
    "a!:a",
    "[a,C]",
    "c1ccccc1",
    "C~C~C",
    "[CH3]",
    "*~" * 33 + "*",
    "[#6;!#6]",
    "[Xe]",
    "C!@C!@[C,N;!R]",
    "[R2]@[R2]",
)


def tree_mask(view: MoleculeView, expr, bond: bool = False) -> int:
    """Atoms (or, with ``bond``, bonds) that satisfy ``expr``, by a
    recursive walk that reads each primitive from the view's fact
    tables and recomputes ``!``, ``&`` and ``,`` on every call: the
    evaluator that compiled expression slots replaced."""
    if isinstance(expr, Prim):
        facts = view.bond_facts if bond else view.atom_facts
        return facts.get((expr.kind, expr.value), 0)
    if isinstance(expr, Not):
        full = (1 << (view.n_bonds if bond else view.n)) - 1
        return full & ~tree_mask(view, expr.arg, bond)
    if isinstance(expr, And):
        m = -1
        for arg in expr.args:
            m &= tree_mask(view, arg, bond)
        return m
    if isinstance(expr, Or):
        m = 0
        for arg in expr.args:
            m |= tree_mask(view, arg, bond)
        return m
    raise AssertionError(expr)


def substructure_row_oracle(mol: Molecule, keys, variant: str) -> dict[int, int]:
    """A substructure row by one search per key, as the family computed
    it before its keys were compiled together: key position -> 1 (binary)
    or the number of distinct matched atom sets (count).

    Each key's masks come from ``tree_mask``; a recursive backtracking
    search then places the query atoms in pattern order, each one among
    the neighbours of the target of an earlier query atom bonded to it,
    and collects the matched atom sets; binary stops at the first."""
    view = MoleculeView(mol)
    bond_of = {}
    for bidx, b in enumerate(mol.bonds):
        bond_of[b.i, b.j] = bond_of[b.j, b.i] = bidx
    row = {}
    for pos, key in enumerate(keys):
        pattern = key.pattern
        qn = pattern.n_atoms
        amasks = [tree_mask(view, e) for e in pattern.atom_exprs]
        bmasks = [tree_mask(view, e, bond=True) for e in pattern.bond_exprs]
        back = [[] for _ in range(qn)]  # (earlier query atom, pattern bond)
        for bpos, (qi, qj) in enumerate(pattern.bond_list):
            back[max(qi, qj)].append((min(qi, qj), bpos))
        assign: list[int] = []
        found: set[frozenset[int]] = set()

        def extend(q: int) -> bool:
            if q == qn:
                found.add(frozenset(assign))
                return variant == "binary"
            if back[q]:
                cands = [t for t, _ in mol.neighbors[assign[back[q][0][0]]]]
            else:
                cands = range(mol.n_atoms)
            for t in cands:
                if t in assign or not amasks[q] >> t & 1:
                    continue
                if any(
                    bond_of.get((assign[other], t)) is None
                    or not bmasks[bpos] >> bond_of[assign[other], t] & 1
                    for other, bpos in back[q]
                ):
                    continue
                assign.append(t)
                done = extend(q + 1)
                assign.pop()
                if done:
                    return True
            return False

        extend(0)
        if found:
            row[pos] = 1 if variant == "binary" else len(found)
    return row


# ----------------------------------------------------- feature counting

def _bfs_dists(mol: Molecule, start: int, limit: int | None = None) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        nxt = []
        for cur in frontier:
            for nbr, _ in mol.neighbors[cur]:
                if nbr not in dist:
                    dist[nbr] = depth
                    nxt.append(nbr)
        frontier = nxt
    return dist


def shortest_path_matrix(mol: Molecule) -> list[list[float]]:
    """All-pairs unweighted BFS distances; unreachable pairs are inf."""
    out = []
    for start in range(mol.n_atoms):
        row = [math.inf] * mol.n_atoms
        for j, d in _bfs_dists(mol, start).items():
            row[j] = float(d)
        out.append(row)
    return out


def ecfp_feature_count(mol: Molecule, radius: int) -> int:
    """Number of environments surviving bond-set deduplication: one per
    atom at radius 0, plus distinct bond sets over radii 1..radius."""
    envs = set()
    for a in range(mol.n_atoms):
        dist = _bfs_dists(mol, a, radius)
        for k in range(1, radius + 1):
            env = frozenset(
                (min(b.i, b.j), max(b.i, b.j))
                for b in mol.bonds
                if min(dist.get(b.i, k + 1), dist.get(b.j, k + 1)) <= k - 1
            )
            envs.add(env)
    return mol.n_atoms + len(envs)


def atom_invariant_oracle(mol: Molecule, idx: int) -> int:
    """The ECFP seed of atom ``idx``, hashed from its tuple on every call."""
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


def circular_oracle(mol: Molecule, cfg, seeds: list[int]) -> dict[int, int]:
    """The ECFP/FCFP row entries from frozenset environments and one sort
    of every feature.

    Iteration k hashes (k, own previous code, sorted (bond code,
    neighbor previous code) pairs).  Its environment is the set of bonds
    with an endpoint within k - 1 bonds of the atom, grown by the
    recurrence env_1(a) = bonds incident to a, env_k(a) = env_{k-1}(a)
    united with env_{k-1}(nbr) over the neighbors of a.  An environment
    whose bond set was already produced by an earlier environment (lower
    iteration first, then lower identifier) is discarded; iteration-0
    environments are one per atom and never collide.  Each kept
    identifier counts 1 at its value modulo ``cfg.length``; binary rows
    store 1 at each index.
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
            ident = stable_hash32(TAG_ECFP, k, codes[a], *itertools.chain.from_iterable(parts))
            new_codes.append(ident)
            features.append((k, ident, envs[a]))
        codes = new_codes

    kept: dict[object, int] = {}  # environment -> identifier of its first feature
    for _, ident, env in sorted(features, key=lambda f: (f[0], f[1])):
        kept.setdefault(env, ident)
    counts: dict[int, int] = {}
    for ident in kept.values():
        idx = ident % cfg.length
        counts[idx] = counts.get(idx, 0) + 1
    return counts if cfg.variant == "count" else dict.fromkeys(counts, 1)


def atom_pair_feature_count(mol: Molecule, cap: int) -> int:
    count = 0
    heavy = [i for i in range(mol.n_atoms) if mol.atoms[i].element != 1]
    for pos, i in enumerate(heavy):
        dist = _bfs_dists(mol, i)
        for j in heavy[pos + 1 :]:
            if j in dist and 1 <= dist[j] <= cap:
                count += 1
    return count


def atom_pair_tally_oracle(mol: Molecule, cap: int, length: int) -> dict[int, int]:
    """The atom-pair count vector from all-pairs distances: each pair of
    heavy atoms at distance 1..cap, keyed (smaller type, distance,
    larger type), counted at that key's hash modulo ``length``."""
    types = [
        stable_hash32(TAG_ATOM_TYPE, a.element, a.degree, int(a.aromatic)) for a in mol.atoms
    ]
    dist = shortest_path_matrix(mol)
    heavy = [i for i in range(mol.n_atoms) if mol.atoms[i].element != 1]
    counts: dict[int, int] = {}
    for i, j in itertools.combinations(heavy, 2):
        if dist[i][j] <= cap:
            lo, hi = sorted((types[i], types[j]))
            idx = stable_hash32(TAG_ATOM_PAIR, lo, int(dist[i][j]), hi) % length
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def torsion_feature_count(mol: Molecule) -> int:
    count = 0
    n = mol.n_atoms
    for a in range(n):
        for b, _ in mol.neighbors[a]:
            for c, _ in mol.neighbors[b]:
                if c == a:
                    continue
                for d, _ in mol.neighbors[c]:
                    if d in (a, b):
                        continue
                    count += 1
    return count // 2


def path_feature_count(mol: Molecule, min_bonds: int, max_bonds: int) -> int:
    total = 0

    def dfs(path: list[int]) -> None:
        nonlocal total
        if len(path) - 1 >= min_bonds:
            total += 1
        if len(path) - 1 == max_bonds:
            return
        for nbr, _ in mol.neighbors[path[-1]]:
            if nbr not in path:
                path.append(nbr)
                dfs(path)
                path.pop()

    for start in range(mol.n_atoms):
        dfs([start])
    return total // 2


def path_fingerprint_oracle(mol: Molecule, min_path: int, max_path: int, length: int):
    """The path count vector from a walk from every atom: each simple path
    of min_path..max_path bonds, kept from its smaller end atom, as the
    smaller of its (atom code, bond code, ..., atom code) tuple and that
    tuple reversed, counted at the tuple's hash modulo ``length``."""
    acode = [
        stable_hash32(TAG_PATH_ATOM, a.element, int(a.aromatic), a.degree) for a in mol.atoms
    ]
    counts: dict[int, int] = {}

    def walk(path: list[int], seq: tuple[int, ...]) -> None:
        if path[0] < path[-1] and len(path) > min_path:
            idx = stable_hash32(TAG_PATH, *min(seq, seq[::-1])) % length
            counts[idx] = counts.get(idx, 0) + 1
        if len(path) <= max_path:
            for nbr, bidx in mol.neighbors[path[-1]]:
                if nbr not in path:
                    walk(path + [nbr], seq + (mol.bonds[bidx].order.value, acode[nbr]))

    for start in range(mol.n_atoms):
        walk([start], (acode[start],))
    return counts


# ------------------------------------------------------------ similarity

def full_scan_top_k(query_support: set[int], row_supports: list[set[int]], k: int, metric: str):
    """Reference top-k by scoring every row and sorting."""
    scored = []
    for idx, row in enumerate(row_supports):
        inter = len(query_support & row)
        if metric == "tanimoto":
            union = len(query_support | row)
            score = inter / union if union else 0.0
        else:
            denom = len(query_support) + len(row)
            score = 2 * inter / denom if denom else 0.0
        scored.append((idx, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[: min(k, len(scored))]
