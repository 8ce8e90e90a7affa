"""Frozen copies of the two parsers as they were before SMILES and SMARTS
shared one grammar walker (``smiles._walk``), for the differential test
in ``tests/test_parser_walker.py``.

Each copy keeps its own anchor, pending bond, branch stack, ring-closure
table and end-of-input checks, as the originals did.  They read atoms
and bonds with the library's own readers (``tokenize``, the bracket-atom
reader, the atom and bond expression scanners), which the walker did not
change; the SMARTS token pattern is frozen here, because the walker
renumbered its groups.  Kept apart from ``tests/oracles.py``, which the
benchmark imports on every run.
"""

from __future__ import annotations

import re

from molfp.chem import ORGANIC_RE, MoleculeDraft, _shared_bond
from molfp.errors import (
    SmartsSyntaxError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnclosedRingError,
    UnsupportedPrimitiveError,
)
from molfp.smarts import (
    Or,
    Prim,
    SmartsPattern,
    _AtomExprScanner,
    _BondExprScanner,
    _implies_aromatic,
)
from molfp.smiles import (
    _BOND,
    _BOND_CHARS,
    _BRACKET,
    _BRACKET_RE,
    _CLOSE,
    _IMPLIED_ORDER,
    _OPEN,
    _ORGANIC,
    _ORGANIC_ATOMS,
    _RING,
    _parse_bracket,
    tokenize,
)


def parse_smiles(text: str) -> MoleculeDraft:
    """``parse_smiles`` before the walker."""
    stripped = text.strip()
    if not stripped:
        raise SmilesSyntaxError("empty SMILES", 0)
    offset = text.index(stripped[0])
    draft = MoleculeDraft(source_text=stripped)
    atoms, bonds = draft.atoms, draft.bonds
    aromatic: list[bool] = []
    parent: list[int | None] = []
    closed: set[tuple[int, int]] = set()
    anchor = None
    pending = None
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict = {}

    for kind, tok, pos in tokenize(text, offset, offset + len(stripped)):
        if kind == _ORGANIC or kind == _BRACKET:
            if kind == _ORGANIC:
                atom = _ORGANIC_ATOMS[tok][0]
            else:
                atom = _parse_bracket(tok, pos)[0]
                if _BRACKET_RE.match(tok).group("stereo") is not None:
                    draft.stereo_ignored = True
            atoms.append(atom)
            flag = atom.aromatic_flag
            aromatic.append(flag)
            parent.append(anchor)
            new = len(atoms) - 1
            if anchor is not None:
                both = flag and aromatic[anchor]
                order = pending or _IMPLIED_ORDER[both]
                bonds.append(_shared_bond(anchor, new, order))
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
                order = pending or other_order or _IMPLIED_ORDER[both]
                if anchor == other:
                    raise SmilesSyntaxError(f"self-loop bond on atom {anchor}", pos)
                if parent[anchor] == other or parent[other] == anchor or (anchor, other) in closed:
                    raise SmilesSyntaxError(
                        f"duplicate bond between atoms {anchor} and {other}", pos
                    )
                closed.update(((anchor, other), (other, anchor)))
                bonds.append(_shared_bond(anchor, other, order))
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


# SMARTS token groups as they were: a bracket atom, a bare atom, a bond
# run, a ring closure, a parenthesis, and any other character.
SMARTS_TOKEN_RE = re.compile(
    rf"(\[[^\]]*\])|({ORGANIC_RE}|[*aA])|([-=#:~@!&,;]+)|([0-9]|%[0-9][0-9])|([()])|(.)",
    re.DOTALL,
)
_S_BRACKET, _S_ATOM, _S_BOND, _S_RING, _S_PAREN = range(1, 6)

_BAD_CHARS = {
    "[": (SmartsSyntaxError, "unclosed bracket"),
    "%": (SmartsSyntaxError, "%% ring closure needs two digits"),
    "$": (UnsupportedPrimitiveError, "$(...) recursive SMARTS"),
    ".": (UnsupportedPrimitiveError, "'.' component grouping"),
    "/": (UnsupportedPrimitiveError, "stereo bond"),
    "\\": (UnsupportedPrimitiveError, "stereo bond"),
}


def parse_bond_expr(text: str, base_pos: int):
    """A run of bond-expression characters parsed; None for empty text."""
    return _BondExprScanner(text, base_pos).parse() if text else None


def parse_smarts(text: str) -> SmartsPattern:
    """``parse_smarts`` before the walker."""
    stripped = text.strip()
    if not stripped:
        raise SmartsSyntaxError("empty SMARTS", 0)
    offset = text.index(stripped[0])
    end = offset + len(stripped)

    atoms: list = []
    bonds: list[tuple[int, int]] = []
    bond_exprs: list = []
    adjacency: list[list[tuple[int, int]]] = []
    anchor = None
    pending = ""
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict = {}
    parent: list[int | None] = []
    closed: set[tuple[int, int]] = set()

    def add_bond(qi: int, qj: int, run: str, run_pos: int) -> None:
        expr = parse_bond_expr(run, run_pos)
        if expr is None:
            both = _implies_aromatic(atoms[qi]) and _implies_aromatic(atoms[qj])
            expr = Or((Prim("aromatic"), Prim("single"))) if both else Prim("single")
        adjacency[qi].append((qj, len(bonds)))
        adjacency[qj].append((qi, len(bonds)))
        bonds.append((qi, qj))
        bond_exprs.append(expr)

    for m in SMARTS_TOKEN_RE.finditer(text, offset, end):
        kind, tok, pos = m.lastindex, m.group(), m.start()
        if kind == _S_BRACKET or kind == _S_ATOM:
            body, base = (tok[1:-1], pos + 1) if kind == _S_BRACKET else (tok, pos)
            atoms.append(_AtomExprScanner(body, base).parse())
            adjacency.append([])
            parent.append(anchor)
            new = len(atoms) - 1
            if anchor is not None:
                add_bond(anchor, new, pending, pending_pos)
                pending = ""
            anchor = new
        elif kind == _S_BOND:
            if anchor is None:
                raise SmartsSyntaxError("bond expression before any atom", pos)
            pending, pending_pos = tok, pos
        elif kind == _S_RING:
            if anchor is None:
                raise SmartsSyntaxError("ring closure before any atom", pos)
            num = int(tok.lstrip("%"))
            if num in open_rings:
                other, other_run, other_pos, _ = open_rings.pop(num)
                if other_run and pending and other_run != pending:
                    raise SmartsSyntaxError(
                        f"conflicting bond expressions on ring closure {num}", pos
                    )
                run = pending or other_run
                run_pos = pending_pos if pending else other_pos
                if other == anchor:
                    raise SmartsSyntaxError(f"ring closure {num} forms a self-loop", pos)
                if parent[anchor] == other or parent[other] == anchor or (anchor, other) in closed:
                    raise SmartsSyntaxError(
                        f"duplicate bond between atoms {anchor} and {other}", pos
                    )
                closed.update(((anchor, other), (other, anchor)))
                add_bond(anchor, other, run, run_pos)
            else:
                open_rings[num] = (anchor, pending, pending_pos, pos)
            pending = ""
        elif kind == _S_PAREN:
            parse_bond_expr(pending, pending_pos)
            if tok == "(":
                if anchor is None:
                    raise SmartsSyntaxError("branch before any atom", pos)
                if pending:
                    raise SmartsSyntaxError("bond expression before branch open", pos)
                branch_stack.append(anchor)
            else:
                if not branch_stack:
                    raise SmartsSyntaxError("unmatched ')'", pos)
                if pending:
                    raise SmartsSyntaxError("dangling bond expression before ')'", pos)
                anchor = branch_stack.pop()
        else:
            error, message = _BAD_CHARS.get(tok, (SmartsSyntaxError, f"unknown symbol {tok!r}"))
            raise error(message, pos)

    if pending:
        raise SmartsSyntaxError("dangling bond expression", pending_pos)
    if open_rings:
        num, (*_, pos) = min(open_rings.items(), key=lambda kv: kv[1][3])
        raise SmartsSyntaxError(f"ring closure {num} never matched", pos)
    if branch_stack:
        raise SmartsSyntaxError("unclosed '('", end - 1)
    if not atoms:
        raise SmartsSyntaxError("no atoms in pattern", 0)

    return SmartsPattern(
        text=stripped,
        atom_exprs=tuple(atoms),
        bond_list=tuple(bonds),
        bond_exprs=tuple(bond_exprs),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )
