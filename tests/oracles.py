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

from molfp.chem import Bond, BondOrder, Molecule, MoleculeDraft
from molfp.hashing import TAG_ATOM_PAIR, TAG_ATOM_TYPE, TAG_PATH, TAG_PATH_ATOM, stable_hash32
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
