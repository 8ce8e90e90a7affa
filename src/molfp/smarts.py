"""SMARTS-subset pattern compiler and subgraph matcher.

Atom primitives: #n, element symbols (aromatic lowercase), a/A, *,
D<n>, H<n>, X<n>, R/R<n>, r/r<n>, +/- charges.  Bond primitives:
- = # : ~ @.  Operators: ! (not), & or juxtaposition (and), , (or),
; (low-precedence and).  Recursive SMARTS, stereo, isotopes, and
component grouping are rejected as unsupported.  The text is read as one
stream of tokens, as ``smiles.tokenize`` reads SMILES: bracket atoms,
bare atoms, runs of bond-expression characters, ring closures and
parentheses.  A bond expression binds the atom or ring closure after it;
one before ``(`` or ``)`` is an error, as in SMILES.

Matching enumerates injective homomorphisms (pattern bonds must exist
and match in the target; extra target bonds are allowed) by an
iterative depth-first search over candidate bitmasks, placing the most
constrained query atoms first.  Patterns are compiled together into
numbered expression slots (see CompiledPatterns), each an integer
bitmask over atoms or bonds on one molecule: primitives are read from
a table of per-molecule facts filled in one pass (see MoleculeView),
composites computed once.  A one-atom pattern is answered from its
mask; a larger one with more atoms than the molecule, or with an atom
no target atom satisfies, is screened out before the search starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .chem import LOWERCASE_AROMATIC, ORGANIC_RE, Molecule, atomic_number
from .errors import KeySetError, MatchLimitError, SmartsSyntaxError, UnsupportedPrimitiveError

# The most mappings one pattern may enumerate on one molecule, past
# which match, count_unique and the count variant raise MatchLimitError:
# a three-generation neopentyl dendrimer has 4! x (3!)^16 self-matches.
# Default keys enumerate at most 396 on the seeded corpus and the large
# benchmark molecules; the two-generation dendrimer's self-matches, 31,104.
MAX_MAPPINGS = 100_000

# The most candidate atoms one search may try, past which it raises
# MatchLimitError too: a pattern that passes the atom and bond screens
# can still try exponentially many partial mappings and complete none.
# Default keys try at most 3,597 on the seeded corpus and the large
# benchmark molecules; the three-generation dendrimer's self-match
# reaches MAX_MAPPINGS after 315,177.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class Prim:
    """Leaf predicate; ``value`` meaning depends on ``kind``."""

    kind: str
    value: int = 0


@dataclass(frozen=True)
class Not:
    arg: "Prim | Not | And | Or"


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


class MoleculeView:
    """One molecule's SMARTS primitives as integer bitmasks.

    Bit ``i`` of an atom mask is atom ``i``; bit ``b`` of a bond mask is
    bond ``b``.  The constructor makes one pass over the atoms and one
    over the bonds, recording every primitive each one satisfies as a
    ``(kind, value)`` fact and ORing its bit into that fact's mask; a
    primitive no atom or bond has is absent.  CompiledPatterns.masks
    reads its primitive slots from these tables.  Callers matching many
    patterns against one molecule should reuse one view.
    """

    def __init__(self, mol: Molecule):
        self.n = mol.n_atoms
        self.n_bonds = len(mol.bonds)
        self.neighbors = mol.neighbors
        rings = mol.rings
        atom_facts: dict[tuple[str, int | None], int] = {}
        for i, atom in enumerate(mol.atoms):
            facts = [
                ("element", atom.element),
                ("symbol_aromatic" if atom.aromatic else "symbol_aliphatic", atom.element),
                ("aromatic" if atom.aromatic else "aliphatic", 0),
                ("degree", atom.degree),
                ("total_h", mol.total_h[i]),
                ("connectivity", len(mol.neighbors[i]) + atom.implicit_h),
                ("ring_count", rings.atom_ring_count[i]),
                ("ring_size", rings.smallest_ring_size[i]),
                ("charge", atom.charge),
            ]
            if rings.atom_in_ring[i]:
                facts.append(("in_ring", 0))
            bit = 1 << i
            for fact in facts:
                atom_facts[fact] = atom_facts.get(fact, 0) | bit
        atom_facts["wildcard", 0] = (1 << self.n) - 1
        # Bonds are tallied by order, and each order is named once:
        # BondOrder.name is a slow property.
        by_order: dict = {}
        ring = 0
        for b, (bond, in_ring) in enumerate(zip(mol.bonds, rings.bond_in_ring)):
            by_order[bond.order] = by_order.get(bond.order, 0) | 1 << b
            if in_ring:
                ring |= 1 << b
        bond_facts = {(order.name.lower(), 0): m for order, m in by_order.items()}
        bond_facts["any", 0] = (1 << self.n_bonds) - 1
        bond_facts["ring", 0] = ring
        self.atom_facts = atom_facts
        self.bond_facts = bond_facts


def _implies_aromatic(expr) -> bool:
    """Whether every atom satisfying the expression is aromatic.

    Conservative: returns False when unsure.  Used only to pick the
    default bond expression between adjacent query atoms.
    """
    if isinstance(expr, Prim):
        return expr.kind in ("symbol_aromatic", "aromatic")
    if isinstance(expr, And):
        return any(_implies_aromatic(a) for a in expr.args)
    if isinstance(expr, Or):
        return bool(expr.args) and all(_implies_aromatic(a) for a in expr.args)
    return False


@dataclass(frozen=True)
class MatchSet:
    """All mappings of a pattern onto a molecule.

    ``mappings`` are tuples indexed by query atom; ``unique_atom_sets``
    deduplicates them by the set of matched target atoms, in first
    discovery order.
    """

    mappings: tuple[tuple[int, ...], ...]
    unique_atom_sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SmartsPattern:
    """Query graph over atom and bond predicate expressions."""

    text: str
    atom_exprs: tuple
    bond_list: tuple[tuple[int, int], ...]
    bond_exprs: tuple
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atom_exprs)


class _ExprScanner:
    """Recursive-descent parser for the SMARTS operator grammar.

    Loosest to tightest: ``;`` (and), ``,`` (or), ``&`` or juxtaposition
    (and), ``!`` (not).  Subclasses parse the leaves in ``primitive()``.
    """

    def __init__(self, text: str, base_pos: int):
        self.text = text
        self.i = 0
        self.base = base_pos

    def error(self, msg: str):
        raise SmartsSyntaxError(msg, self.base + self.i)

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self):
        expr = self.expr_semi()
        if self.i != len(self.text):
            self.error(f"unexpected {self.peek()!r} in expression")
        return expr

    def expr_semi(self):
        parts = [self.expr_or()]
        while self.peek() == ";":
            self.i += 1
            parts.append(self.expr_or())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def expr_or(self):
        parts = [self.expr_and()]
        while self.peek() == ",":
            self.i += 1
            parts.append(self.expr_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def expr_and(self):
        parts = [self.unary()]
        while True:
            c = self.peek()
            if c == "&":
                self.i += 1
                parts.append(self.unary())
            elif c and c not in ",;":
                parts.append(self.unary())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self):
        if self.peek() == "!":
            self.i += 1
            return Not(self.unary())
        return self.primitive()


class _BondExprScanner(_ExprScanner):
    """Parser for one run of bond-expression characters."""

    PRIMS = {
        "-": Prim("single"),
        "=": Prim("double"),
        "#": Prim("triple"),
        ":": Prim("aromatic"),
        "~": Prim("any"),
        "@": Prim("ring"),
    }

    def primitive(self):
        c = self.peek()
        if c not in self.PRIMS:
            self.error(f"bad bond expression char {c!r}")
        self.i += 1
        return self.PRIMS[c]


class _AtomExprScanner(_ExprScanner):
    """Parser for one atom expression: bracket contents or a bare symbol."""

    # Letter primitives: the name taken when a count follows (None: the
    # letter reads no count), and the primitive when none does.
    LETTERS = {
        "*": (None, Prim("wildcard")),
        "a": (None, Prim("aromatic")),
        "A": (None, Prim("aliphatic")),
        "D": ("degree", Prim("degree", 1)),
        "H": ("total_h", Prim("total_h", 1)),
        "X": ("connectivity", Prim("connectivity", 1)),
        "R": ("ring_count", Prim("in_ring")),
        "r": ("ring_size", Prim("in_ring")),
    }

    def unsupported(self, what: str):
        raise UnsupportedPrimitiveError(
            f"unsupported SMARTS primitive {what!r}", self.base + self.i
        )

    def _number(self) -> int | None:
        j = self.i
        while j < len(self.text) and "0" <= self.text[j] <= "9":
            j += 1
        if j == self.i:
            return None
        value = int(self.text[self.i : j])
        self.i = j
        return value

    def primitive(self):
        c = self.peek()
        if not c:
            self.error("truncated atom expression")
        if c == "$":
            self.unsupported("$(...) recursive SMARTS")
        if c == "@":
            self.unsupported("@ chirality")
        if "0" <= c <= "9":
            self.unsupported("isotope specification")
        if c == "#":
            self.i += 1
            num = self._number()
            if num is None:
                self.error("# needs an atomic number")
            return Prim("element", num)
        if c in "+-":
            sign = 1 if c == "+" else -1
            self.i += 1
            num = self._number()
            if num is None:
                num = 1
                while self.peek() == c:
                    num += 1
                    self.i += 1
            return Prim("charge", sign * num)
        # Two-letter element symbols win over primitive letters.
        two = self.text[self.i : self.i + 2]
        if len(two) == 2 and two[0].isupper() and two[1].islower():
            elem = atomic_number(two)
            if elem is not None:
                self.i += 2
                return Prim("symbol_aliphatic", elem)
        if two in ("se", "as"):
            self.i += 2
            return Prim("symbol_aromatic", LOWERCASE_AROMATIC[two])
        if c in self.LETTERS:
            self.i += 1
            counted, bare = self.LETTERS[c]
            num = self._number() if counted else None
            return bare if num is None else Prim(counted, num)
        if c in LOWERCASE_AROMATIC:
            self.i += 1
            return Prim("symbol_aromatic", LOWERCASE_AROMATIC[c])
        if c.isupper():
            elem = atomic_number(c)
            if elem is not None:
                self.i += 1
                return Prim("symbol_aliphatic", elem)
        self.unsupported(c)


# One group per token kind, numbered as below: a bracket atom, a bare
# atom, a run of bond-expression characters, a ring closure and a
# parenthesis; the sixth takes any other character, which starts no token.
_TOKEN_RE = re.compile(
    rf"(\[[^\]]*\])|({ORGANIC_RE}|[*aA])|([-=#:~@!&,;]+)|([0-9]|%[0-9][0-9])|([()])|(.)",
    re.DOTALL,
)
_BRACKET, _ATOM, _BOND, _RING, _PAREN = range(1, 6)

# The error at a character that starts no token; any not listed is an
# unknown symbol.
_BAD_CHARS = {
    "[": (SmartsSyntaxError, "unclosed bracket"),
    "%": (SmartsSyntaxError, "%% ring closure needs two digits"),
    "$": (UnsupportedPrimitiveError, "$(...) recursive SMARTS"),
    ".": (UnsupportedPrimitiveError, "'.' component grouping"),
    "/": (UnsupportedPrimitiveError, "stereo bond"),
    "\\": (UnsupportedPrimitiveError, "stereo bond"),
}


def _parse_bond_expr(text: str, base_pos: int):
    """Parse a run of bond-expression characters; None for empty text."""
    return _BondExprScanner(text, base_pos).parse() if text else None


def parse_smarts(text: str) -> SmartsPattern:
    """Compile SMARTS text into a query pattern graph.

    The text is read as one stream of tokens (see ``_TOKEN_RE``), left to
    right, so the first error in the text wins.  A bond expression binds
    the atom or ring closure that follows it; one pending at ``(`` or
    ``)`` is parsed, so that an error inside it wins, and then raises
    SmartsSyntaxError at the parenthesis.  A bad ring closure (no atom
    yet, conflicting bond expressions, a loop, a second bond between two
    atoms) raises SmartsSyntaxError at the closure token.  Positions
    count in ``text`` as given, leading whitespace included."""
    stripped = text.strip()
    if not stripped:
        raise SmartsSyntaxError("empty SMARTS", 0)
    offset = text.index(stripped[0])
    end = offset + len(stripped)

    atoms: list = []
    bonds: list[tuple[int, int]] = []
    bond_exprs: list = []
    adjacency: list[list[tuple[int, int]]] = []  # per atom, (neighbour, bond index)
    anchor: int | None = None
    pending: str = ""
    pending_pos = 0
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, str, int]] = {}
    parent: list[int | None] = []  # per atom, the other end of its chain bond
    closed: set[tuple[int, int]] = set()  # ring-closure bonds so far, both orientations

    def add_bond(qi: int, qj: int, run: str, run_pos: int) -> None:
        # With no expression, single, or single or aromatic between two
        # atoms that can only be aromatic.
        expr = _parse_bond_expr(run, run_pos)
        if expr is None:
            both = _implies_aromatic(atoms[qi]) and _implies_aromatic(atoms[qj])
            expr = Or((Prim("aromatic"), Prim("single"))) if both else Prim("single")
        adjacency[qi].append((qj, len(bonds)))
        adjacency[qj].append((qi, len(bonds)))
        bonds.append((qi, qj))
        bond_exprs.append(expr)

    for m in _TOKEN_RE.finditer(text, offset, end):
        kind, tok, pos = m.lastindex, m.group(), m.start()
        if kind == _BRACKET or kind == _ATOM:
            body, base = (tok[1:-1], pos + 1) if kind == _BRACKET else (tok, pos)
            atoms.append(_AtomExprScanner(body, base).parse())
            adjacency.append([])
            parent.append(anchor)
            new = len(atoms) - 1
            if anchor is not None:
                add_bond(anchor, new, pending, pending_pos)
                pending = ""
            anchor = new
        elif kind == _BOND:
            if anchor is None:
                raise SmartsSyntaxError("bond expression before any atom", pos)
            pending, pending_pos = tok, pos
        elif kind == _RING:
            if anchor is None:
                raise SmartsSyntaxError("ring closure before any atom", pos)
            num = int(tok.lstrip("%"))
            if num in open_rings:
                other, other_run, other_pos = open_rings.pop(num)
                if other_run and pending and other_run != pending:
                    raise SmartsSyntaxError(
                        f"conflicting bond expressions on ring closure {num}", pos
                    )
                run = pending or other_run
                run_pos = pending_pos if pending else other_pos
                if other == anchor:
                    raise SmartsSyntaxError(f"ring closure {num} forms a self-loop", pos)
                # Chain bonds join atoms to their parents; other bonds are closures.
                if parent[anchor] == other or parent[other] == anchor or (anchor, other) in closed:
                    raise SmartsSyntaxError(
                        f"duplicate bond between atoms {anchor} and {other}", pos
                    )
                closed.update(((anchor, other), (other, anchor)))
                add_bond(anchor, other, run, run_pos)
            else:
                open_rings[num] = (anchor, pending, pending_pos)
            pending = ""
        elif kind == _PAREN:
            # A bond binds only an atom or a ring closure; the error in
            # its own expression, which comes first in the text, wins.
            _parse_bond_expr(pending, pending_pos)
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
        num, (_, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][2])
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


def _assignment_order(pattern: SmartsPattern, amasks: list[int]) -> list[int]:
    """Query atom processing order: most constrained first, then grow
    along pattern adjacency, preferring the fewest candidates."""
    counts = [m.bit_count() for m in amasks]
    unplaced = set(range(pattern.n_atoms))
    frontier: set[int] = set()  # unplaced atoms bonded to a placed one
    order: list[int] = []
    while unplaced:
        # An empty frontier starts the next pattern component.
        pick = min(frontier or unplaced, key=lambda q: (counts[q], q))
        order.append(pick)
        unplaced.discard(pick)
        frontier.discard(pick)
        frontier.update(nbr for nbr, _ in pattern.adjacency[pick] if nbr in unplaced)
    return order


class CompiledPatterns:
    """Patterns compiled together: one numbered slot per distinct
    expression, so a molecule evaluates each expression once.

    Slots are interned by (context, expression), the context False for
    an atom expression and True for a bond expression: ``Prim("aromatic")``
    is an aromatic atom in one and an aromatic bond in the other.  Slots
    are numbered in post-order, so an operand's slot comes before its
    composite's.  ``plan[k]`` is pattern k with the slots of its atom
    expressions and of its bond expressions.
    """

    def __init__(self, patterns):
        slots: dict[tuple[bool, object], int] = {}
        ops: list[tuple[type, bool, object]] = []  # (expression class, context, operand)

        def intern(bond: bool, expr) -> int:
            key = (bond, expr)
            if key not in slots:
                if isinstance(expr, Prim):
                    arg = (expr.kind, expr.value)
                elif isinstance(expr, Not):
                    arg = intern(bond, expr.arg)
                else:
                    arg = tuple(intern(bond, a) for a in expr.args)
                slots[key] = len(ops)
                ops.append((type(expr), bond, arg))
            return slots[key]

        self.plan = tuple(
            (
                pattern,
                tuple(intern(False, e) for e in pattern.atom_exprs),
                tuple(intern(True, e) for e in pattern.bond_exprs),
            )
            for pattern in patterns
        )
        self.ops = tuple(ops)

    def masks(self, view: MoleculeView) -> list[int]:
        """Every slot's mask on the view's molecule, in slot order: the
        atoms (or bonds) that satisfy the slot's expression.  A primitive
        is a lookup in the view's facts; ``!``, ``&`` and ``,`` combine
        their operands' masks with ``~``, ``&`` and ``|``."""
        facts = (view.atom_facts, view.bond_facts)
        full = ((1 << view.n) - 1, (1 << view.n_bonds) - 1)
        m: list[int] = []
        for op, bond, arg in self.ops:
            if op is Prim:
                x = facts[bond].get(arg, 0)
            elif op is Not:
                x = full[bond] & ~m[arg]
            elif op is And:
                x = -1
                for a in arg:
                    x &= m[a]
            else:
                x = 0
                for a in arg:
                    x |= m[a]
            m.append(x)
        return m

    def row(self, view: MoleculeView, count: bool) -> dict[int, int]:
        """Pattern index -> 1 for each pattern that matches (or, with
        ``count``, its number of distinct matched atom sets), in pattern
        order; patterns with no match are left out.  A one-atom pattern's
        distinct atom sets are the set bits of its atom mask."""
        m = self.masks(view)
        out = {}
        for k, (pattern, aslots, bslots) in enumerate(self.plan):
            if len(aslots) == 1:
                hits = m[aslots[0]]
                if hits:
                    out[k] = hits.bit_count() if count else 1
            else:
                found = _search(pattern, aslots, bslots, m, view, not count)
                if found:
                    out[k] = len(found)
        return out


def _search(pattern, aslots, bslots, m, view, first_only, mappings=None) -> set[int]:
    """The distinct target atom sets, as bitmasks, of the pattern's
    mappings onto the view's molecule, given the slots of its atom and
    bond expressions and the slot masks ``m``; with ``first_only``, stops
    at the first mapping.  Each mapping is also appended to ``mappings``,
    when given, as a tuple indexed by query atom.  Raises MatchLimitError
    past MAX_MAPPINGS mappings or MAX_STEPS candidate atoms tried.  A
    pattern with more atoms than the molecule, or with an atom no target
    atom satisfies, has none; so has one with more bonds than the
    molecule, or with a bond no target bond satisfies.

    Depth-first search over candidate bitmasks (Ullmann, J. ACM 23:31,
    1976; VF2, Cordella et al., IEEE TPAMI 26:1367, 2004) on an explicit
    stack: ``stack[step]`` holds the target atoms still to try for query
    atom ``order[step]``.  A step's candidates are its atom mask minus
    the atoms in use, ANDed, for each pattern bond back to a placed
    atom, with that atom's neighbours reached through a bond the bond
    mask allows.  Each step takes its lowest set bit first, so targets
    are tried in ascending index order, the order of a recursive search
    that tries the neighbour list (sorted by index) of one placed
    neighbour, or every atom when there is none: mappings come out in
    that search's order.
    """
    qn = pattern.n_atoms
    amasks = [m[s] for s in aslots]
    if qn > view.n or not all(amasks):
        return set()
    bmasks = [m[s] for s in bslots]
    if len(bmasks) > view.n_bonds or not all(bmasks):
        return set()
    order = _assignment_order(pattern, amasks)
    # Per step: the atom mask and (placed query atom, bond mask) per pattern bond back.
    steps: list[tuple[int, list[tuple[int, int]]]] = []
    placed: set[int] = set()
    for q in order:
        links = [(nbr, bmasks[b]) for nbr, b in pattern.adjacency[q] if nbr in placed]
        steps.append((amasks[q], links))
        placed.add(q)
    neighbors = view.neighbors
    assignment = [-1] * qn
    found: set[int] = set()
    enumerated = 0
    tried = 0
    used = 0
    stack = [amasks[order[0]]]
    while stack:
        step = len(stack) - 1
        cands = stack[step]
        if not cands:
            stack.pop()
            if step:
                used ^= 1 << assignment[order[step - 1]]
            continue
        tried += 1
        if tried > MAX_STEPS:
            raise MatchLimitError(
                f"pattern {pattern.text!r} tried more than {MAX_STEPS} "
                "candidate atoms on this molecule"
            )
        bit = cands & -cands
        stack[step] = cands ^ bit
        assignment[order[step]] = bit.bit_length() - 1
        if step + 1 == qn:
            enumerated += 1
            if enumerated > MAX_MAPPINGS:
                raise MatchLimitError(
                    f"pattern {pattern.text!r} has more than {MAX_MAPPINGS} "
                    "mappings on this molecule"
                )
            found.add(used | bit)
            if mappings is not None:
                mappings.append(tuple(assignment))
            if first_only:
                break
            continue
        used |= bit
        cands, links = steps[step + 1]
        cands &= ~used
        for nbr_q, bmask in links:
            reach = 0
            for t, tb in neighbors[assignment[nbr_q]]:
                if bmask >> tb & 1:
                    reach |= 1 << t
            cands &= reach
        stack.append(cands)
    return found


def match(pattern: SmartsPattern, mol: Molecule, view: MoleculeView | None = None) -> MatchSet:
    """Enumerate all injective matches of a pattern in a molecule."""
    view = view or MoleculeView(mol)
    compiled = CompiledPatterns((pattern,))
    mappings: list[tuple[int, ...]] = []
    _search(*compiled.plan[0], compiled.masks(view), view, False, mappings)
    unique = tuple(dict.fromkeys(map(frozenset, mappings)))
    return MatchSet(mappings=tuple(mappings), unique_atom_sets=unique)


def has_match(pattern: SmartsPattern, mol: Molecule, view: MoleculeView | None = None) -> bool:
    """True when at least one mapping exists; stops at the first."""
    return bool(CompiledPatterns((pattern,)).row(view or MoleculeView(mol), count=False))


def count_unique(pattern: SmartsPattern, mol: Molecule, view: MoleculeView | None = None) -> int:
    """Number of distinct matched target-atom sets."""
    return CompiledPatterns((pattern,)).row(view or MoleculeView(mol), count=True).get(0, 0)


@dataclass(frozen=True)
class SmartsKey:
    key_id: str
    smarts: str
    description: str
    pattern: SmartsPattern


class KeySet(tuple):
    """A tuple of SmartsKeys whose patterns are compiled once, into one
    CompiledPatterns (``compiled``), when the key set is built.  The
    compiled form is pickled with the keys, so pool workers reuse it."""

    def __new__(cls, keys, compiled: CompiledPatterns | None = None):
        self = super().__new__(cls, keys)
        self.compiled = compiled or CompiledPatterns([key.pattern for key in self])
        return self

    def __reduce__(self):
        return KeySet, (tuple(self), self.compiled)


def load_key_set(path: str | Path) -> KeySet:
    """Load and compile a key-set file.

    Format: one record per line, ``<key_id><TAB><smarts><TAB><description>``;
    lines starting with '#' and blank lines are skipped.  Any structural
    or SMARTS error raises KeySetError naming the offending line, so a
    bad file fails at load time and never mid-batch.
    """
    keys: list[SmartsKey] = []
    seen_ids: set[str] = set()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise KeySetError(f"cannot read key set {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise KeySetError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        key_id, smarts_text, description = (f.strip() for f in fields)
        if not key_id or key_id in seen_ids:
            raise KeySetError(f"{path}:{lineno}: missing or duplicate key id {key_id!r}")
        seen_ids.add(key_id)
        try:
            pattern = parse_smarts(smarts_text)
        except SmartsSyntaxError as exc:
            raise KeySetError(f"{path}:{lineno}: bad SMARTS {smarts_text!r}: {exc}") from exc
        keys.append(SmartsKey(key_id, smarts_text, description, pattern))
    if not keys:
        raise KeySetError(f"{path}: key set is empty")
    return KeySet(keys)


def default_key_set_path() -> Path:
    """Path of the packaged functional-group key set."""
    return Path(resources.files("molfp") / "data" / "functional_groups.smarts")
