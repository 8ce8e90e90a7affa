"""SMILES tokenizer and parser, the grammar walker, and canonical writer.

``tokenize`` splits the whole text into contiguous (kind number, text,
position) tuples first, so a character that starts no token wins over
every grammar error; ``_walk``, which SMARTS shares, reads the graph
grammar from them.  Supported subset: organic-subset atoms (B, C, N, O,
P, S, F, Cl, Br, I, lowercase aromatic forms), bracket atoms with
isotope, charge, explicit hydrogen count and atom map (maps are parsed
and discarded), ring closures including %nn, branches, dots, and the
bond symbols - = # :.  Stereo markers (/ \\ @ @@) are parsed and
ignored; the draft records that they were dropped.
"""

from __future__ import annotations

import re
from itertools import accumulate, count
from operator import itemgetter

from .chem import (
    BOND_CODE,
    LOWERCASE_AROMATIC,
    ORGANIC_AROMATIC,
    ORGANIC_ONE,
    ORGANIC_RE,
    ORGANIC_SUBSET,
    ORGANIC_TWO,
    AtomDraft,
    Bond,
    BondOrder,
    Molecule,
    MoleculeDraft,
    _shared_atom_draft,
    _shared_bond,
    atomic_number,
    default_implicit_h,
    sanitize,
    symbol_of,
)
from .errors import (
    ChargeOverflowError,
    RingClosureOverflowError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnclosedRingError,
)

MAX_CHARGE = 15

# ASCII digits only: a Unicode \d would also read '٣' as a digit.
_BRACKET_RE = re.compile(
    r"\[(?P<isotope>\d+)?"
    r"(?P<symbol>[A-Za-z][a-z]?)"
    r"(?P<stereo>@{1,2})?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>[+-]\d+|\++|-+)?"
    r"(?::(?P<map>\d+))?"
    r"\]$",
    re.ASCII,
)


# One alternative per token kind, without groups, so that findall
# returns the token texts.
_TOKEN_RE = re.compile(rf"{ORGANIC_RE}|\[[^\]]*\]|[-=#:/\\]|[0-9]|%[0-9][0-9]|\(|\)|\.")
_ORGANIC, _BRACKET, _BOND, _RING, _OPEN, _CLOSE, _DOT = range(1, 8)

# A token's kind number by its first character, which no two kinds share.
_KIND_OF = {
    **dict.fromkeys((sym[0] for sym in (*ORGANIC_TWO, *ORGANIC_ONE, *ORGANIC_AROMATIC)), _ORGANIC),
    "[": _BRACKET,
    **dict.fromkeys("-=#:/\\", _BOND),
    **dict.fromkeys("0123456789%", _RING),
    "(": _OPEN,
    ")": _CLOSE,
    ".": _DOT,
}
_first_char = itemgetter(0)


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[tuple[int, str, int]]:
    """Split ``text[start:end]`` (by default all of it) into (kind number,
    token text, position) tuples, each position counted in ``text``; kind
    numbers are ``_ORGANIC`` to ``_DOT``.  Token spans are contiguous and
    cover the whole span; the first character that starts no token raises
    SmilesSyntaxError at its position in ``text``."""
    if end is None:
        end = len(text)
    texts = _TOKEN_RE.findall(text, start, end)
    # findall skips characters that start no token; the texts cover the
    # span exactly when their lengths add up to it.
    if sum(map(len, texts)) == end - start:
        kinds = map(_KIND_OF.__getitem__, map(_first_char, texts))
        return list(zip(kinds, texts, accumulate(map(len, texts), initial=start)))
    pos = start
    for m in _TOKEN_RE.finditer(text, start, end):
        if m.start() != pos:
            break
        pos = m.end()
    c = text[pos]
    if c == "[":
        raise SmilesSyntaxError("unclosed bracket atom", pos)
    if c == "%":
        raise SmilesSyntaxError("%% ring closure needs two digits", pos)
    raise SmilesSyntaxError(f"unknown symbol {c!r}", pos)


def _parse_charge(text: str, pos: int) -> int:
    if text[0] in "+-" and len(text) > 1 and text[1:].isdigit():
        charge = int(text[1:])
    else:
        charge = len(text)
    if text[0] == "-":
        charge = -charge
    if abs(charge) > MAX_CHARGE:
        raise ChargeOverflowError(f"|charge| {abs(charge)} exceeds {MAX_CHARGE}", pos)
    return charge


def _parse_bracket(text: str, pos: int) -> tuple[AtomDraft, bool]:
    """Decompose a bracket token; returns the atom and its aromatic flag."""
    m = _BRACKET_RE.match(text)
    if m is None:
        raise SmilesSyntaxError(f"malformed bracket atom {text!r}", pos)
    symbol = m.group("symbol")
    aromatic = False
    if symbol[0].islower():
        element = LOWERCASE_AROMATIC.get(symbol)
        if element is None:
            raise SmilesSyntaxError(f"unknown aromatic symbol {symbol!r}", pos)
        aromatic = True
    else:
        element = atomic_number(symbol)
        if element is None:
            raise SmilesSyntaxError(f"unknown element symbol {symbol!r}", pos)
    iso = m.group("isotope")
    hspec = m.group("hcount")
    if hspec is None:
        hcount = 0
    elif hspec == "H":
        hcount = 1
    else:
        hcount = int(hspec[1:])
    charge = 0
    if m.group("charge"):
        charge = _parse_charge(m.group("charge"), pos)
    # Positional, in AtomDraft's field order, as the cache key.
    return _shared_atom_draft(element, charge, int(iso) if iso else None, hcount, aromatic), aromatic


def _error(errors: dict, key: str, pos: int, **fields) -> Exception:
    cls, message = errors[key]
    return cls(message.format(**fields), pos)


def _walk(text, tokens, bare, read_atom, read_bond, make_bond, implied, errors):
    """Walk one notation's graph grammar over ``tokens(text, start, end)``,
    which gives the (kind number, token, position) tuples of the stripped
    span as ``tokenize`` numbers them; return the stripped text, the
    atoms and the bonds ``make_bond(i, j, value)``.

    An atom is an (atom, aromatic flag) pair: ``bare[token]``, or
    ``read_atom(token, position)`` for a bracket atom.  A bond token is
    read by ``read_bond(token, position)`` when it arrives; an unwritten
    bond is ``implied[both atoms aromatic]``.  ``errors`` gives each
    grammar error's class and message.  A ring closure whose two bond
    values differ, a loop or a second bond between two atoms raises at
    the closing digit.  After the last token, an open branch raises at
    the last non-blank character and a text without atoms at the first;
    every position counts in ``text`` as given.
    """
    stripped = text.strip()
    if not stripped:
        raise _error(errors, "empty", 0)
    start = text.index(stripped[0])
    end = start + len(stripped)
    atoms: list = []
    bonds: list = []
    aromatic: list[bool] = []  # per atom, its aromatic flag
    parent: list[int | None] = []  # per atom, the other end of its chain bond
    closed: set[tuple[int, int]] = set()  # ring-closure bonds so far, both orientations
    anchor: int | None = None
    pending = None
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict = {}  # ring number -> (its atom, its bond value or None, its position)

    for kind, tok, pos in tokens(text, start, end):
        if kind == _ORGANIC or kind == _BRACKET:
            atom, flag = bare[tok] if kind == _ORGANIC else read_atom(tok, pos)
            atoms.append(atom)
            aromatic.append(flag)
            parent.append(anchor)
            new = len(atoms) - 1
            if anchor is not None:
                # A bond to the newest atom cannot be a loop or a duplicate.
                bonds.append(make_bond(anchor, new, pending or implied[flag and aromatic[anchor]]))
                pending = None
            anchor = new
        elif kind == _BOND:
            if pending is not None:
                raise _error(errors, "bond_twice", pos)
            if anchor is None:
                raise _error(errors, "bond_first", pos)
            pending = read_bond(tok, pos)
            pending_pos = pos
        elif kind == _RING:
            if anchor is None:
                raise _error(errors, "ring_first", pos)
            num = int(tok[1:] if tok[0] == "%" else tok)
            if num in open_rings:
                other, other_bond, _ = open_rings.pop(num)
                if other_bond is not None and pending is not None and other_bond != pending:
                    raise _error(errors, "conflict", pos, num=num)
                if anchor == other:
                    raise _error(errors, "loop", pos, num=num, i=anchor)
                # Chain bonds join atoms to their parents; other bonds are closures.
                if parent[anchor] == other or parent[other] == anchor or (anchor, other) in closed:
                    raise _error(errors, "duplicate", pos, i=anchor, j=other)
                closed.update(((anchor, other), (other, anchor)))
                both = aromatic[anchor] and aromatic[other]
                bonds.append(make_bond(anchor, other, pending or other_bond or implied[both]))
            else:
                open_rings[num] = (anchor, pending, pos)
            pending = None
        elif kind == _OPEN:
            if anchor is None:
                raise _error(errors, "branch_first", pos)
            if pending is not None:
                raise _error(errors, "bond_open", pos)
            branch_stack.append(anchor)
        elif kind == _CLOSE:
            if not branch_stack:
                raise _error(errors, "unmatched", pos)
            if pending is not None:
                raise _error(errors, "bond_close", pos)
            anchor = branch_stack.pop()
        else:
            if pending is not None:
                raise _error(errors, "bond_dot", pos)
            anchor = None

    if pending is not None:
        raise _error(errors, "bond_end", pending_pos)
    if open_rings:
        num, (_, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][2])
        raise _error(errors, "ring_open", pos, num=num)
    if branch_stack:
        raise _error(errors, "branch_open", end - 1)
    if not atoms:
        raise _error(errors, "no_atoms", start)
    return stripped, atoms, bonds


# Organic-subset symbol -> its one shared draft atom and aromatic flag.
_ORGANIC_ATOMS = {
    **{sym: (AtomDraft(atomic_number(sym)), False) for sym in (*ORGANIC_TWO, *ORGANIC_ONE)},
    **{
        sym: (AtomDraft(LOWERCASE_AROMATIC[sym], aromatic_flag=True), True)
        for sym in ORGANIC_AROMATIC
    },
}

_BOND_CHARS = {"-": BondOrder.SINGLE, "=": BondOrder.DOUBLE, "#": BondOrder.TRIPLE,
               ":": BondOrder.AROMATIC, "/": BondOrder.SINGLE, "\\": BondOrder.SINGLE}


def _read_bond(tok: str, pos: int) -> BondOrder:
    return _BOND_CHARS[tok]


# The order of a bond written without a symbol, indexed by whether both
# of its atoms are aromatic.
_IMPLIED_ORDER = (BondOrder.SINGLE, BondOrder.AROMATIC)

_ERRORS = {
    "empty": (SmilesSyntaxError, "empty SMILES"),
    "bond_twice": (SmilesSyntaxError, "two bond symbols in a row"),
    "bond_first": (SmilesSyntaxError, "bond symbol before any atom"),
    "ring_first": (SmilesSyntaxError, "ring closure before any atom"),
    "conflict": (SmilesSyntaxError, "conflicting bond orders on ring closure {num}"),
    "loop": (SmilesSyntaxError, "self-loop bond on atom {i}"),
    "duplicate": (SmilesSyntaxError, "duplicate bond between atoms {i} and {j}"),
    "branch_first": (SmilesSyntaxError, "branch before any atom"),
    "bond_open": (SmilesSyntaxError, "bond symbol before branch open"),
    "unmatched": (UnbalancedParenError, "unmatched ')'"),
    "bond_close": (SmilesSyntaxError, "dangling bond symbol before ')'"),
    "bond_dot": (SmilesSyntaxError, "bond symbol before '.'"),
    "bond_end": (SmilesSyntaxError, "dangling bond symbol at end of input"),
    "ring_open": (UnclosedRingError, "ring closure {num} never matched"),
    "branch_open": (UnbalancedParenError, "unclosed '('"),
    "no_atoms": (SmilesSyntaxError, "no atoms in SMILES"),
}


def parse_smiles(text: str) -> MoleculeDraft:
    """Parse SMILES text into a molecule draft (see ``_walk``).

    An unwritten bond between two aromatic atoms is provisionally
    aromatic; sanitize demotes it to single outside every ring.  The whole
    text is tokenized first, so a character that starts no token wins
    over any grammar error.
    """
    stripped, atoms, bonds = _walk(
        text, tokenize, _ORGANIC_ATOMS, _parse_bracket, _read_bond, _shared_bond, _IMPLIED_ORDER,
        _ERRORS,
    )
    # The tokenizer admits '@' only inside a bracket atom, where only its
    # chirality may hold it, and '/' and '\' only as bond symbols.
    stereo = "@" in stripped or "/" in stripped or "\\" in stripped
    return MoleculeDraft(atoms, bonds, source_text=stripped, stereo_ignored=stereo)


def from_smiles(text: str) -> Molecule:
    """Parse and sanitize in one step."""
    return sanitize(parse_smiles(text))


class _Cells:
    """An ordered partition of a molecule's atoms into cells.

    Cell ``c`` holds the atoms ``members[c]`` at the positions
    ``start[c]`` to ``start[c] + len(members[c]) - 1``; an atom's rank is
    the start of its cell.  ``cell_at[p]`` is the cell that starts at
    position ``p`` (stale where no cell starts).  Building the partition
    seeds it by atom invariants and refines it until no cell splits.
    """

    __slots__ = ("nbrs", "cell_of", "start", "members", "cell_at")

    def __init__(self, mol: Molecule):
        n = mol.n_atoms
        # Bond codes are scaled by n, so that code + rank orders a
        # neighbour as the pair (code, rank) does.
        codes = [BOND_CODE[b.order] * n for b in mol.bonds]
        self.nbrs = [[(j, codes[b]) for j, b in row] for row in mol.neighbors]
        by_seed: dict[tuple, list[int]] = {}
        for i, a in enumerate(mol.atoms):
            seed = (a.element, a.degree, a.charge, a.implicit_h, a.aromatic)
            by_seed.setdefault(seed, []).append(i)
        self.cell_of = [0] * n
        self.start: list[int] = []
        self.members: list[set[int]] = []
        self.cell_at = [0] * n
        pos = 0
        for seed in sorted(by_seed):
            atoms = by_seed[seed]
            self._add_cell(pos, atoms)
            pos += len(atoms)
        self.refine(range(n))

    def _add_cell(self, pos: int, atoms: list[int]) -> None:
        cell = len(self.start)
        self.start.append(pos)
        self.members.append(set(atoms))
        self.cell_at[pos] = cell
        for a in atoms:
            self.cell_of[a] = cell

    def refine(self, touched) -> None:
        """Split cells in synchronous rounds until none splits.

        A round re-signs the ``touched`` atoms (at first those given,
        later the neighbours of atoms that moved to a new cell) plus one
        untouched member per cell it touches, which stands for all of
        them.  A signature is the sorted ``(bond code, neighbour rank)``
        list, read from the ranks at the start of the round; a split cell
        keeps its positions, its parts in signature order.  The untouched
        part, or else the largest (Paige & Tarjan, SIAM J. Comput. 16:973,
        1987), keeps the cell; the others are new.
        """
        nbrs, cell_of, start, members, cell_at = (
            self.nbrs, self.cell_of, self.start, self.members, self.cell_at
        )

        def sign(atom: int) -> tuple[int, ...]:
            # The sorted (bond code, neighbour rank) list; one- and
            # two-neighbour atoms, most of a molecule, skip the sort.
            nb = nbrs[atom]
            if len(nb) == 1:
                (j, k), = nb
                return (k + start[cell_of[j]],)
            if len(nb) == 2:
                (j, k), (j2, k2) = nb
                x, y = k + start[cell_of[j]], k2 + start[cell_of[j2]]
                return (x, y) if x <= y else (y, x)
            return tuple(sorted([k + start[cell_of[j]] for j, k in nb]))

        touched = set(touched)
        while touched:
            by_cell: dict[int, list[int]] = {}
            for a in touched:
                c = cell_of[a]
                if len(members[c]) > 1:
                    by_cell.setdefault(c, []).append(a)
            splits = []
            for c, atoms in by_cell.items():
                parts: dict[tuple[int, ...], list[int]] = {}
                for a in atoms:
                    parts.setdefault(sign(a), []).append(a)
                rest = len(members[c]) - len(atoms)
                if rest:
                    rep = next(a for a in members[c] if a not in touched)
                    keep = sign(rep)
                    parts.setdefault(keep, [])
                if len(parts) > 1:
                    if not rest:
                        keep = max(parts, key=lambda sig: len(parts[sig]))
                    splits.append((c, parts, keep, rest))
            moved: list[int] = []
            for c, parts, keep, rest in splits:
                pos = start[c]
                for sig in sorted(parts):
                    part = parts[sig]
                    if sig == keep:
                        start[c] = pos
                        cell_at[pos] = c
                        pos += rest
                    else:
                        members[c].difference_update(part)
                        self._add_cell(pos, part)
                        moved += part
                    pos += len(part)
            touched = {j for a in moved for j, _ in nbrs[a]}

    def individualize(self, atom: int) -> None:
        """Place ``atom`` in a cell of its own before the rest of its
        cell, then refine from its neighbours."""
        c = self.cell_of[atom]
        pos = self.start[c]
        self.members[c].discard(atom)
        self.start[c] = pos + 1
        self.cell_at[pos + 1] = c
        self._add_cell(pos, [atom])
        self.refine(j for j, _ in self.nbrs[atom])

    def ranks(self) -> list[int]:
        start = self.start
        return [start[c] for c in self.cell_of]


def canonical_ranks(mol: Molecule) -> list[int]:
    """Canonical per-atom ranks (a permutation of 0..n-1).

    The atoms are split into ordered cells, seeded by (element, degree,
    charge, implicit hydrogens, aromatic) in sorted order; an atom's rank
    is the position where its cell starts.  Refinement runs in
    synchronous rounds: each round splits every cell by the sorted
    multiset of (bond code, neighbour rank) taken at the start of the
    round, the parts in that order within the cell's positions, and only
    atoms next to an atom that changed cell are re-signed.  When no cell
    splits, the smallest original index of the first cell with more than
    one atom is individualized (placed before the rest of its cell) and
    refinement resumes from that atom's neighbours, until every cell has
    one atom.  The ranks equal those of full rounds with dense ranks,
    because the splitting key is invariant under a monotone renumbering
    (Weininger et al., J. Chem. Inf. Comput. Sci. 29:97, 1989; McKay &
    Piperno, J. Symb. Comput. 60:94, 2014).
    """
    cells = _Cells(mol)
    pos = 0
    while pos < mol.n_atoms:
        members = cells.members[cells.cell_at[pos]]
        if len(members) == 1:
            pos += 1
        else:
            cells.individualize(min(members))
    return cells.ranks()


def _default_h(mol: Molecule, idx: int) -> int | None:
    n_arom = 0
    other = 0
    for _, bidx in mol.neighbors[idx]:
        order = mol.bonds[bidx].order
        if order is BondOrder.AROMATIC:
            n_arom += 1
        else:
            other += BOND_CODE[order]
    return default_implicit_h(mol.atoms[idx].element, 0, n_arom, other)


def _atom_label(mol: Molecule, idx: int) -> str:
    a = mol.atoms[idx]
    sym = symbol_of(a.element)
    if a.aromatic:
        sym = sym.lower()
    plain = (
        a.element in ORGANIC_SUBSET
        and a.charge == 0
        and a.isotope is None
        and _default_h(mol, idx) == a.implicit_h
    )
    if plain:
        return sym
    parts = ["["]
    if a.isotope is not None:
        parts.append(str(a.isotope))
    parts.append(sym)
    if a.implicit_h == 1:
        parts.append("H")
    elif a.implicit_h > 1:
        parts.append(f"H{a.implicit_h}")
    if a.charge == 1:
        parts.append("+")
    elif a.charge == -1:
        parts.append("-")
    elif a.charge > 1:
        parts.append(f"+{a.charge}")
    elif a.charge < -1:
        parts.append(f"-{-a.charge}")
    parts.append("]")
    return "".join(parts)


def _bond_symbol(mol: Molecule, bond: Bond) -> str:
    if bond.order is BondOrder.DOUBLE:
        return "="
    if bond.order is BondOrder.TRIPLE:
        return "#"
    if bond.order is BondOrder.SINGLE:
        if mol.atoms[bond.i].aromatic and mol.atoms[bond.j].aromatic:
            return "-"
    return ""


def write_canonical_smiles(mol: Molecule) -> str:
    """Canonical SMILES: DFS from the lowest-rank atom of each component,
    neighbors in rank order, components ordered by their lowest rank.

    The output is the same for every input atom order only when the
    atoms still tied after refinement are related by an automorphism,
    so that whichever one the tie-break picks gives the same string.
    Refinement does not ensure this: it cannot tell the CH2 of a
    three-membered ring from that of a six-membered one, so
    ``C1CCCCC1.C1CC1.C1CC1`` written in three atom orders gives three
    different strings."""
    n = mol.n_atoms
    if n == 0:
        return ""
    ranks = canonical_ranks(mol)

    # Tree children and ring-closure partners, each with its bond index.
    visit_order = [-1] * n
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ring_partners: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    roots: list[int] = []
    preorder = count()

    def by_rank(atom: int):
        return iter(sorted(mol.neighbors[atom], key=lambda nb: ranks[nb[0]]))

    for root in sorted(range(n), key=lambda i: ranks[i]):
        if visit_order[root] >= 0:
            continue
        roots.append(root)
        visit_order[root] = next(preorder)
        stack = [(root, -1, by_rank(root))]
        while stack:
            cur, parent, it = stack[-1]
            for nbr, bidx in it:
                if nbr == parent:
                    continue
                if visit_order[nbr] < 0:
                    visit_order[nbr] = next(preorder)
                    children[cur].append((nbr, bidx))
                    stack.append((nbr, cur, by_rank(nbr)))
                    break
                # A back edge is met once, from its later-visited end;
                # record it at both endpoints.
                if visit_order[nbr] < visit_order[cur]:
                    ring_partners[nbr].append((cur, bidx))
                    ring_partners[cur].append((nbr, bidx))
            else:
                stack.pop()

    # Ring closures take fresh numbers 1..99 in order of opening; once
    # those are spent, each opening reuses the lowest number not open.
    open_rings: dict[int, int] = {}  # bond index -> ring number
    next_ring = 1

    def ring_number() -> int:
        nonlocal next_ring
        if next_ring < 100:
            next_ring += 1
            return next_ring - 1
        free = set(range(1, 100)).difference(open_rings.values())
        if not free:
            raise RingClosureOverflowError("more than 99 ring closures open at once")
        return min(free)

    def atom_text(idx: int) -> str:
        parts = [_atom_label(mol, idx)]
        for _, bidx in sorted(ring_partners[idx], key=lambda p: visit_order[p[0]]):
            num = open_rings.pop(bidx, None)
            if num is None:
                num = open_rings[bidx] = ring_number()
                parts.append(_bond_symbol(mol, mol.bonds[bidx]))
            parts.append(str(num) if num < 10 else f"%{num:02d}")
        return "".join(parts)

    fragments: list[str] = []
    for root in roots:
        parts: list[str] = []
        # Literal text, or (atom, symbol of the bond that leads to it).
        ops: list[str | tuple[int, str]] = [(root, "")]
        while ops:
            op = ops.pop()
            if isinstance(op, str):
                parts.append(op)
                continue
            idx, sym = op
            parts.append(sym + atom_text(idx))
            # The last child is pushed first and written bare; the others
            # are branches.
            for i, (kid, bidx) in enumerate(reversed(children[idx])):
                op = (kid, _bond_symbol(mol, mol.bonds[bidx]))
                ops += (")", op, "(") if i else (op,)
        fragments.append("".join(parts))
    return ".".join(fragments)
