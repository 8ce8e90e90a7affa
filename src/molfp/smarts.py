"""SMARTS-subset pattern compiler and subgraph matcher.

Atom primitives: #n, element symbols (aromatic lowercase), a/A, *,
D<n>, H<n>, X<n>, R/R<n>, r/r<n>, +/- charges.  Bond primitives:
- = # : ~ @.  Operators: ! (not), & or juxtaposition (and), , (or),
; (low-precedence and).  Recursive SMARTS, stereo, isotopes, and
component grouping are rejected as unsupported.  ``smiles._walk`` reads
the graph grammar, as for SMILES, from tokens read one at a time, each
bond expression as it arrives, so the first error in the text wins.  A
bond expression binds the atom or ring closure after it; one before
``(`` or ``)`` is an error, as in SMILES.

Matching enumerates injective homomorphisms (pattern bonds must exist
and match in the target; extra target bonds are allowed) by an
iterative depth-first search over candidate bitmasks.  Patterns are
compiled together into numbered expression slots (see
CompiledPatterns), each an integer bitmask over atoms or bonds on one
molecule.  Atoms are grouped by class (see MoleculeView): the slots a
class satisfies are evaluated once, on that class's facts, and kept in
a bounded cache, so a molecule only ORs each class's atoms into them.
Bond slots are read from a table of per-molecule bond facts, composites
computed once.  A one-atom pattern is answered from its mask; a larger
one with more atoms or bonds than the molecule, or with an atom or bond
no target satisfies, is screened out before the search starts.

Substructure rows, ``has_match`` and ``count_unique`` search each
pattern along a route that its compiled form plans once per root query
atom: the molecule picks only the root, the query atom with the fewest
candidates.  ``match`` orders query atoms per molecule
(``_assignment_order``), since its mapping order is part of its result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from importlib import resources
from pathlib import Path

from .chem import LOWERCASE_AROMATIC, ORGANIC_RE, Molecule, atomic_number
from .errors import KeySetError, MatchLimitError, SmartsSyntaxError, UnsupportedPrimitiveError
from .smiles import _DOT, _ORGANIC_ATOMS, _walk

# The most mappings one pattern may enumerate on one molecule, past
# which match, count_unique and the count variant raise MatchLimitError:
# a three-generation neopentyl dendrimer has 4! x (3!)^16 self-matches.
# Default keys enumerate at most 48 on the seeded corpus and 396 on the
# large benchmark molecules, in any search order; the two-generation
# dendrimer's self-matches, 31,104.
MAX_MAPPINGS = 100_000

# The most candidate atoms one search may try, past which it raises
# MatchLimitError too: a pattern that passes the atom and bond screens
# can still try exponentially many partial mappings and complete none.
# Default keys try at most 456 on the seeded corpus and 3,597 on the
# large benchmark molecules, both along compiled routes and in match's
# per-molecule order; the three-generation dendrimer's self-match
# reaches MAX_MAPPINGS after 315,177 in match's order and 300,042 along
# its compiled route.
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
    """One molecule's atoms grouped by class, and its bond primitives as
    integer bitmasks.

    Bit ``i`` of an atom mask is atom ``i``; bit ``b`` of a bond mask is
    bond ``b``.  An atom's class is its shared ``Atom`` with its total
    hydrogen count, ring count, smallest ring size, ring flag and
    neighbour count: atoms of one class satisfy the same atom
    primitives.  ``classes`` maps each class to the mask of its atoms.
    The bond pass records every primitive each bond satisfies as a
    ``(kind, value)`` fact in ``bond_facts`` and ORs its bit into that
    fact's mask; a primitive no bond has is absent.  Callers matching
    many patterns against one molecule should reuse one view.
    """

    def __init__(self, mol: Molecule):
        self.n = mol.n_atoms
        self.n_bonds = len(mol.bonds)
        self.neighbors = mol.neighbors
        rings = mol.rings
        classes: dict[tuple, int] = {}
        bit = 1
        for cls in zip(
            mol.atoms,
            mol.total_h,
            rings.atom_ring_count,
            rings.smallest_ring_size,
            rings.atom_in_ring,
            map(len, mol.neighbors),
        ):
            classes[cls] = classes.get(cls, 0) | bit
            bit <<= 1
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
        self.classes = classes
        self.bond_facts = bond_facts


def _class_facts(cls: tuple) -> list[tuple[str, int | None]]:
    """Every atom primitive an atom of class ``cls`` (see MoleculeView)
    satisfies, as ``(kind, value)`` facts."""
    atom, total_h, ring_count, ring_size, in_ring, n_neighbors = cls
    facts = [
        ("element", atom.element),
        ("symbol_aromatic" if atom.aromatic else "symbol_aliphatic", atom.element),
        ("aromatic" if atom.aromatic else "aliphatic", 0),
        ("degree", atom.degree),
        ("total_h", total_h),
        ("connectivity", n_neighbors + atom.implicit_h),
        ("ring_count", ring_count),
        ("ring_size", ring_size),
        ("charge", atom.charge),
        ("wildcard", 0),
    ]
    if in_ring:
        facts.append(("in_ring", 0))
    return facts


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
        """The whole text: expr_and stops only at its end or at "," or
        ";", which expr_or and this loop consume."""
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


# One group per token kind, numbered as ``smiles.tokenize`` numbers its
# kinds: a bare atom, a bracket atom, a run of bond-expression
# characters, a ring closure, '(' and ')'.  The seventh, the number of
# the SMILES dot, takes any other character, which starts no SMARTS token.
_TOKEN_RE = re.compile(
    rf"({ORGANIC_RE}|[*aA])|(\[[^\]]*\])|([-=#:~@!&,;]+)|([0-9]|%[0-9][0-9])|(\()|(\))|(.)",
    re.DOTALL,
)

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


def _tokens(text: str, start: int, end: int):
    """Yield the (kind number, token, position) tuples of
    ``text[start:end]`` one at a time: a character that starts no token
    raises when it is reached, after every token before it is read."""
    for m in _TOKEN_RE.finditer(text, start, end):
        kind, tok, pos = m.lastindex, m.group(), m.start()
        if kind == _DOT:
            error, message = _BAD_CHARS.get(tok, (SmartsSyntaxError, f"unknown symbol {tok!r}"))
            raise error(message, pos)
        yield kind, tok, pos


def _read_atom(tok: str, pos: int):
    """A bracket atom's expression and whether it implies an aromatic atom."""
    expr = _AtomExprScanner(tok[1:-1], pos + 1).parse()
    return expr, _implies_aromatic(expr)


# A bare atom, an organic-subset symbol or one of * a A, means what it
# means inside brackets.
_BARE_ATOMS = {tok: _read_atom(f"[{tok}]", -1) for tok in (*_ORGANIC_ATOMS, *"*aA")}


def _parse_bond_expr(text: str, base_pos: int):
    """Parse a run of bond-expression characters."""
    return _BondExprScanner(text, base_pos).parse()


# The expression of a bond written without one, indexed by whether both
# of its atoms can only be aromatic.
_IMPLIED_BONDS = (Prim("single"), Or((Prim("aromatic"), Prim("single"))))

# A run of bond characters is one token and '.' starts none, so the
# walker's "bond_twice" and "bond_dot" cannot arise.
_ERRORS = {
    "empty": (SmartsSyntaxError, "empty SMARTS"),
    "bond_first": (SmartsSyntaxError, "bond expression before any atom"),
    "ring_first": (SmartsSyntaxError, "ring closure before any atom"),
    "conflict": (SmartsSyntaxError, "conflicting bond expressions on ring closure {num}"),
    "loop": (SmartsSyntaxError, "ring closure {num} forms a self-loop"),
    "duplicate": (SmartsSyntaxError, "duplicate bond between atoms {i} and {j}"),
    "branch_first": (SmartsSyntaxError, "branch before any atom"),
    "bond_open": (SmartsSyntaxError, "bond expression before branch open"),
    "unmatched": (SmartsSyntaxError, "unmatched ')'"),
    "bond_close": (SmartsSyntaxError, "dangling bond expression before ')'"),
    "bond_end": (SmartsSyntaxError, "dangling bond expression"),
    "ring_open": (SmartsSyntaxError, "ring closure {num} never matched"),
    "branch_open": (SmartsSyntaxError, "unclosed '('"),
    "no_atoms": (SmartsSyntaxError, "no atoms in pattern"),
}


def parse_smarts(text: str) -> SmartsPattern:
    """Compile SMARTS text into a query pattern graph (see ``smiles._walk``).

    Tokens are read one at a time and each bond expression as it arrives,
    so the first error in the text wins.  An unwritten bond is single, or
    single or aromatic between two atoms that can only be aromatic."""
    stripped, atoms, bonds = _walk(
        text, _tokens, _BARE_ATOMS, _read_atom, _parse_bond_expr, lambda *bond: bond,
        _IMPLIED_BONDS, _ERRORS,
    )
    adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]  # per atom, (neighbour, bond index)
    for b, (i, j, _) in enumerate(bonds):
        adjacency[i].append((j, b))
        adjacency[j].append((i, b))
    return SmartsPattern(
        text=stripped,
        atom_exprs=tuple(atoms),
        bond_list=tuple((i, j) for i, j, _ in bonds),
        bond_exprs=tuple(expr for _, _, expr in bonds),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )


def _assignment_order(pattern: SmartsPattern, counts: list[int]) -> list[int]:
    """Query atom processing order for ``match``, given each query atom's
    number of candidate target atoms: most constrained first, then grow
    along pattern adjacency, preferring the fewest candidates."""
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


def _planned_order(pattern: SmartsPattern, root: int) -> list[int]:
    """Query atom processing order for a search that starts at ``root``,
    fixed when the route is planned: grow along pattern adjacency,
    taking next the unplaced atom with the most bonds back to placed
    atoms, then the most pattern bonds, then the lowest index.  A heap
    of (priority, atom) entries keeps this linear-logarithmic in the
    pattern size; an entry whose atom is placed is stale and skipped."""
    adjacency = pattern.adjacency
    placed = [False] * pattern.n_atoms
    back = [0] * pattern.n_atoms  # per atom, its bonds to placed atoms
    heap = [(0, 0, root)]
    order: list[int] = []
    lowest = 0  # no atom below it is unplaced
    while len(order) < pattern.n_atoms:
        if heap:
            q = heappop(heap)[2]
            if placed[q]:
                continue
        else:
            # No unplaced atom is bonded to a placed one: the lowest-index
            # unplaced atom starts the next pattern component.
            while placed[lowest]:
                lowest += 1
            q = lowest
        placed[q] = True
        order.append(q)
        for nbr, _ in adjacency[q]:
            if not placed[nbr]:
                back[nbr] += 1
                heappush(heap, (-back[nbr], -len(adjacency[nbr]), nbr))
    return order


def _steps(pattern: SmartsPattern, aslots, bslots, order) -> tuple:
    """Per query atom in ``order``: its atom slot, and a
    ``(placed query atom, bond slot)`` link for each pattern bond back to
    an atom placed before it."""
    placed: set[int] = set()
    steps = []
    for q in order:
        links = tuple((nbr, bslots[b]) for nbr, b in pattern.adjacency[q] if nbr in placed)
        steps.append((aslots[q], links))
        placed.add(q)
    return tuple(steps)


def _candidate_counts(aslots, bslots, m: list[int], view: MoleculeView) -> list[int] | None:
    """Each query atom's number of candidate target atoms under the slot
    masks ``m``; None when the pattern has more atoms or bonds than the
    view's molecule, or an atom or bond that no target atom or bond
    satisfies, and so no mapping."""
    if len(aslots) > view.n or len(bslots) > view.n_bonds:
        return None
    counts = [m[s].bit_count() for s in aslots]
    if 0 in counts or not all(m[s] for s in bslots):
        return None
    return counts


def _evaluate(m: list[int], ops, facts: dict, full: int) -> None:
    """Fill slot ``m[slot]`` for each ``(slot, expression class,
    operand)`` of ``ops``, in order: a primitive is a lookup in
    ``facts``; ``!``, ``&`` and ``,`` combine their operands' masks with
    ``~`` (within ``full``), ``&`` and ``|``."""
    for slot, op, arg in ops:
        if op is Prim:
            x = facts.get(arg, 0)
        elif op is Not:
            x = full & ~m[arg]
        elif op is And:
            x = -1
            for a in arg:
                x &= m[a]
        else:
            x = 0
            for a in arg:
                x |= m[a]
        m[slot] = x


# The most atom classes whose slots one CompiledPatterns keeps: the seeded
# corpus has 53, about 6 per molecule, and the large benchmark molecules
# 69.  The bound keeps unusual input from growing the table.
_CLASS_CACHE_SIZE = 4096


class CompiledPatterns:
    """Patterns compiled together: one numbered slot per distinct
    expression, so a molecule evaluates each expression once.

    Slots are interned by (context, expression), the context False for
    an atom expression and True for a bond expression: ``Prim("aromatic")``
    is an aromatic atom in one and an aromatic bond in the other.  Slots
    are numbered in post-order, so an operand's slot comes before its
    composite's.  ``plan[k]`` is pattern k with the slots of its atom
    expressions and of its bond expressions.  ``route(k, r)`` is the
    search plan of pattern k from root query atom ``r``: its
    ``_planned_order`` and that order's ``_steps``, planned on first use
    and kept in ``routes``, so a key set plans each route once however
    many molecules it matches.
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
        self._init_caches()

    def _init_caches(self) -> None:
        self.routes: dict[tuple[int, int], tuple] = {}
        numbered = [(s, op, arg, bond) for s, (op, bond, arg) in enumerate(self.ops)]
        self._atom_ops = tuple((s, op, arg) for s, op, arg, bond in numbered if not bond)
        self._bond_ops = tuple((s, op, arg) for s, op, arg, bond in numbered if bond)
        self._class_slots = lru_cache(maxsize=_CLASS_CACHE_SIZE)(self._slots_of)

    def __getstate__(self):
        return {"plan": self.plan, "ops": self.ops}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._init_caches()

    def route(self, k: int, root: int) -> tuple:
        """Pattern k's search plan from query atom ``root``: the order in
        which to place its query atoms and that order's steps."""
        route = self.routes.get((k, root))
        if route is None:
            pattern, aslots, bslots = self.plan[k]
            order = _planned_order(pattern, root)
            route = self.routes[k, root] = (order, _steps(pattern, aslots, bslots, order))
        return route

    def _slots_of(self, cls: tuple) -> tuple[int, ...]:
        """The atom slots that an atom of class ``cls`` satisfies."""
        m = [0] * len(self.ops)
        _evaluate(m, self._atom_ops, dict.fromkeys(_class_facts(cls), 1), 1)
        return tuple(s for s, _, _ in self._atom_ops if m[s])

    def masks(self, view: MoleculeView) -> list[int]:
        """Every slot's mask on the view's molecule, in slot order: the
        atoms (or bonds) that satisfy the slot's expression.  Each atom
        class's mask is ORed into the atom slots the class satisfies,
        which are evaluated on the class's facts alone and cached per
        class; bond slots are evaluated over the view's bond facts."""
        m = [0] * len(self.ops)
        class_slots = self._class_slots
        for cls, bits in view.classes.items():
            for s in class_slots(cls):
                m[s] |= bits
        _evaluate(m, self._bond_ops, view.bond_facts, (1 << view.n_bonds) - 1)
        return m

    def row(self, view: MoleculeView, count: bool) -> dict[int, int]:
        """Pattern index -> 1 for each pattern that matches (or, with
        ``count``, its number of distinct matched atom sets), in pattern
        order; patterns with no match are left out.  A one-atom pattern's
        distinct atom sets are the set bits of its atom mask.  A larger
        one is searched along its route from the query atom with the
        fewest candidates, the lowest index on a tie: neither result
        depends on the order in which query atoms are placed."""
        m = self.masks(view)
        out = {}
        for k, (pattern, aslots, bslots) in enumerate(self.plan):
            if len(aslots) == 1:
                hits = m[aslots[0]]
                if hits:
                    out[k] = hits.bit_count() if count else 1
                continue
            counts = _candidate_counts(aslots, bslots, m, view)
            if counts:
                order, steps = self.route(k, counts.index(min(counts)))
                found = _search(pattern, order, steps, m, view, not count)
                if found:
                    out[k] = len(found)
        return out


def _search(pattern, order, steps, m, view, first_only, mappings=None) -> set[int]:
    """The distinct target atom sets, as bitmasks, of the pattern's
    mappings onto the view's molecule, placing query atoms in ``order``
    with the ``steps`` that ``_steps`` built for it and the slot masks
    ``m``; with ``first_only``, stops at the first mapping.  Each mapping
    is also appended to ``mappings``, when given, as a tuple indexed by
    query atom.  Raises MatchLimitError past MAX_MAPPINGS mappings or
    MAX_STEPS candidate atoms tried.  Callers screen the pattern first
    (``_candidate_counts``).

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
    qn = len(order)
    neighbors = view.neighbors
    assignment = [-1] * qn
    found: set[int] = set()
    enumerated = 0
    tried = 0
    used = 0
    stack = [m[steps[0][0]]]
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
        aslot, links = steps[step + 1]
        cands = m[aslot] & ~used
        for nbr_q, bslot in links:
            bmask = m[bslot]
            reach = 0
            for t, tb in neighbors[assignment[nbr_q]]:
                if bmask >> tb & 1:
                    reach |= 1 << t
            cands &= reach
        stack.append(cands)
    return found


def match(pattern: SmartsPattern, mol: Molecule, view: MoleculeView | None = None) -> MatchSet:
    """Enumerate all injective matches of a pattern in a molecule.

    Mappings come out in the order of a search that places query atoms
    in ``_assignment_order``, chosen for this molecule."""
    view = view or MoleculeView(mol)
    compiled = CompiledPatterns((pattern,))
    m = compiled.masks(view)
    _, aslots, bslots = compiled.plan[0]
    mappings: list[tuple[int, ...]] = []
    counts = _candidate_counts(aslots, bslots, m, view)
    if counts:
        order = _assignment_order(pattern, counts)
        _search(pattern, order, _steps(pattern, aslots, bslots, order), m, view, False, mappings)
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
