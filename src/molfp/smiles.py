"""SMILES tokenizer, parser, and canonical writer.

``tokenize`` splits the text into contiguous (kind number, text,
position) tuples, which ``parse_smiles`` reads as they are.  Supported
subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I,
lowercase aromatic forms), bracket atoms with isotope, charge, explicit
hydrogen count and atom map (maps are parsed and discarded), ring
closures including %nn, branches, dots, and the bond symbols - = # :.
Stereo markers (/ \\ @ @@) are parsed and ignored; the draft records
that they were dropped.
"""

from __future__ import annotations

import re
from itertools import count

from .chem import (
    LOWERCASE_AROMATIC,
    ORGANIC_AROMATIC,
    ORGANIC_ONE,
    ORGANIC_SUBSET,
    ORGANIC_TWO,
    AtomDraft,
    Bond,
    BondOrder,
    Molecule,
    MoleculeDraft,
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


# One group per token kind, so that a match's lastindex is its kind
# number.  Two-letter organic symbols are tried first.
_ORGANIC_RE = "|".join(map(re.escape, ORGANIC_TWO)) + "|[" + "".join(
    map(re.escape, sorted(ORGANIC_ONE | ORGANIC_AROMATIC))
) + "]"
_TOKEN_RE = re.compile(
    rf"({_ORGANIC_RE})|(\[[^\]]*\])|([-=#:/\\])|([0-9]|%[0-9][0-9])|(\()|(\))|(\.)"
)
_ORGANIC, _BRACKET, _BOND, _RING, _OPEN, _CLOSE, _DOT = range(1, 8)


def tokenize(text: str) -> list[tuple[int, str, int]]:
    """Split SMILES text into (kind number, token text, position) tuples;
    kind numbers are ``_ORGANIC`` to ``_DOT``.  Token spans are contiguous
    and cover the whole input; the first character that starts no token
    raises SmilesSyntaxError at its position."""
    tokens = []
    end = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != end:
            break
        end = m.end()
        tokens.append((m.lastindex, m.group(), start))
    if end == len(text):
        return tokens
    c = text[end]
    if c == "[":
        raise SmilesSyntaxError("unclosed bracket atom", end)
    if c == "%":
        raise SmilesSyntaxError("%% ring closure needs two digits", end)
    raise SmilesSyntaxError(f"unknown symbol {c!r}", end)


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
    """Decompose a bracket token; returns the atom and a stereo-seen flag."""
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
    atom = AtomDraft(
        element=element,
        formal_charge=charge,
        isotope=int(iso) if iso else None,
        explicit_h=hcount,
        aromatic_flag=aromatic,
    )
    return atom, m.group("stereo") is not None


# Organic-subset symbol -> (element, aromatic flag).
_ORGANIC_ATOMS = {
    **{sym: (atomic_number(sym), False) for sym in (*ORGANIC_TWO, *ORGANIC_ONE)},
    **{sym: (LOWERCASE_AROMATIC[sym], True) for sym in ORGANIC_AROMATIC},
}

_BOND_CHARS = {"-": BondOrder.SINGLE, "=": BondOrder.DOUBLE, "#": BondOrder.TRIPLE,
               ":": BondOrder.AROMATIC, "/": BondOrder.SINGLE, "\\": BondOrder.SINGLE}


def parse_smiles(text: str) -> MoleculeDraft:
    """Parse SMILES text into a molecule draft.

    Ring-closure bonds are resolved, branches attached, and dots produce
    disconnected components.  An unspecified bond between two aromatic
    atoms is provisionally aromatic (sanitize demotes it to single when
    it lies outside every ring).  The whole text is tokenized first, so a
    character that starts no token wins over any grammar error.
    """
    stripped = text.strip()
    if not stripped:
        raise SmilesSyntaxError("empty SMILES", 0)
    offset = text.index(stripped[0])
    draft = MoleculeDraft(source_text=stripped)
    atoms = draft.atoms
    aromatic: list[bool] = []  # per atom, its aromatic flag
    anchor: int | None = None
    pending: BondOrder | None = None
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}

    for kind, tok, tok_pos in tokenize(stripped):
        pos = tok_pos + offset
        if kind == _ORGANIC or kind == _BRACKET:
            if kind == _ORGANIC:
                element, flag = _ORGANIC_ATOMS[tok]
                atom = AtomDraft(element=element, aromatic_flag=flag)
            else:
                # Errors inside a bracket atom count from the stripped text.
                atom, stereo = _parse_bracket(tok, tok_pos)
                if stereo:
                    draft.stereo_ignored = True
            atoms.append(atom)
            flag = atom.aromatic_flag
            aromatic.append(flag)
            new = len(atoms) - 1
            if anchor is not None:
                both = flag and aromatic[anchor]
                order = pending or (BondOrder.AROMATIC if both else BondOrder.SINGLE)
                # A bond to the newest atom cannot be a loop or a duplicate.
                draft.add_bond(anchor, new, order)
                pending = None
            anchor = new
        elif kind == _BOND:
            if pending is not None:
                raise SmilesSyntaxError("two bond symbols in a row", pos)
            if anchor is None:
                raise SmilesSyntaxError("bond symbol before any atom", pos)
            if tok in "/\\":
                draft.stereo_ignored = True
            pending = _BOND_CHARS[tok]
            pending_pos = pos
        elif kind == _RING:
            if anchor is None:
                raise SmilesSyntaxError("ring closure before any atom", pos)
            num = int(tok[1:] if tok[0] == "%" else tok)
            if num in open_rings:
                other, other_order, _ = open_rings.pop(num)
                if other_order is not None and pending is not None and other_order is not pending:
                    raise SmilesSyntaxError(
                        f"conflicting bond orders on ring closure {num}", pos
                    )
                both = aromatic[anchor] and aromatic[other]
                order = pending or other_order or (BondOrder.AROMATIC if both else BondOrder.SINGLE)
                try:
                    draft.add_bond(anchor, other, order)
                except ValueError as exc:
                    raise SmilesSyntaxError(str(exc), pos) from None
            else:
                open_rings[num] = (anchor, pending, pos)
            pending = None
        elif kind == _OPEN:
            if anchor is None:
                raise SmilesSyntaxError("branch before any atom", pos)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before branch open", pos)
            branch_stack.append(anchor)
        elif kind == _CLOSE:
            if not branch_stack:
                raise UnbalancedParenError("unmatched ')'", pos)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", pos)
            anchor = branch_stack.pop()
        else:
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pos)
            anchor = None

    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_pos)
    if open_rings:
        num, (_, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][2])
        raise UnclosedRingError(f"ring closure {num} never matched", pos)
    if branch_stack:
        raise UnbalancedParenError("unclosed '('", len(text) - 1)
    return draft


def from_smiles(text: str) -> Molecule:
    """Parse and sanitize in one step."""
    return sanitize(parse_smiles(text))


def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(mol: Molecule, ranks: list[int]) -> list[int]:
    """Iterative neighborhood refinement until the partition stabilizes."""
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


def canonical_ranks(mol: Molecule) -> list[int]:
    """Canonical per-atom ranks (a permutation of 0..n-1).

    Seeded by (element, degree, charge, implicit hydrogens, aromatic),
    refined by neighbor rank multisets; remaining ties are broken by
    individualizing the smallest original index of the first non-trivial
    class and re-refining.
    """
    n = mol.n_atoms
    seeds = [
        (a.element, a.degree, a.charge, a.implicit_h, a.aromatic) for a in mol.atoms
    ]
    ranks = _refine(mol, _dense_ranks(seeds))
    while len(set(ranks)) < n:
        by_rank: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            by_rank.setdefault(r, []).append(i)
        tied = min(r for r, members in by_rank.items() if len(members) > 1)
        chosen = min(by_rank[tied])
        bumped = [r * 2 + (0 if i == chosen else 1) for i, r in enumerate(ranks)]
        ranks = _refine(mol, _dense_ranks(bumped))
    return ranks


def _default_h(mol: Molecule, idx: int) -> int | None:
    n_arom = 0
    other = 0
    for _, bidx in mol.neighbors[idx]:
        order = mol.bonds[bidx].order
        if order is BondOrder.AROMATIC:
            n_arom += 1
        else:
            other += order.value
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

    The output depends only on the abstract graph, not on input atom
    order (given that tied rank classes are automorphic, which iterative
    refinement ensures for molecular graphs)."""
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
