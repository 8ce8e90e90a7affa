"""Differential test of the grammar walker: ``parse_smiles`` and
``parse_smarts`` against frozen copies of the parsers they replaced
(``tests/parser_oracles.py``).

On every text both give the same draft or pattern, or the same error
class, message and position, except where one of three rules applies:

- ``unclosed '('`` is reported at the last non-blank character (SMILES
  counted trailing whitespace);
- a SMARTS bond expression is read when it arrives, so the first bond
  run that does not parse wins over any later error, and a ring closure
  whose two runs parse to the same expression is no conflict;
- a SMILES text without atoms (only dots) raises ``no atoms in SMILES``
  at its first non-blank character.

For each text that differs, the test asserts the outcome the rule gives.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from molfp.corpus import synthetic_smiles
from molfp.errors import MolfpError, SmartsSyntaxError, SmilesSyntaxError, UnbalancedParenError
from molfp.smarts import default_key_set_path, load_key_set, parse_smarts
from molfp.smiles import parse_smiles

from tests import parser_oracles as frozen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402

SMILES_TOKENS = [
    "C", "C", "c", "c", "N", "n", "O", "o", "S", "Cl", "Br", "[nH]", "[NH4+]",
    "[C@@H]", "[13CH3]", "[O-]", "[Zz]", "[C", "-", "=", "#", ":", "/", "\\",
    "1", "1", "2", "%10", "%1", "(", ")", ".", " ", "$",
]
SMARTS_TOKENS = [
    "C", "C", "c", "N", "n", "O", "*", "a", "A", "[OX2H]", "[C,N;R]", "[#6]",
    "[!#1]", "[Q]", "-", "=", "#", ":", "~", "@", "!", "&", ";", ",",
    "1", "1", "2", "%12", "(", ")", ".", " ", "$", "/",
]

# Outcomes that the parsers give after the last token; any position.
END_OF_INPUT = ("dangling bond expression", "ring closure", "unclosed '('")


def outcome(parse, text):
    try:
        return ("ok", parse(text))
    except MolfpError as exc:
        return ("error", type(exc), exc.message, exc.position)


def random_texts(tokens, seeds, n, rng):
    """``n`` strings of 1 to 12 random tokens, then each seed text with
    one random token inserted at a random place."""
    texts = ["".join(rng.choice(tokens) for _ in range(rng.randint(1, 12))) for _ in range(n)]
    for seed in seeds:
        at = rng.randint(0, len(seed))
        texts.append(seed[:at] + rng.choice(tokens) + seed[at:])
    return texts


def smiles_rule(text, old, new):
    """The outcome a listed rule gives where the parsers differ, or None."""
    if old[0] == "ok" and not old[1].atoms:
        return ("error", SmilesSyntaxError, "no atoms in SMILES", len(text) - len(text.lstrip()))
    if old[1:3] == (UnbalancedParenError, "unclosed '('"):
        return ("error", UnbalancedParenError, "unclosed '('", len(text.rstrip()) - 1)
    return None


def smarts_tokens(text):
    """The frozen SMARTS token matches of the stripped text, up to the
    first character that starts no token."""
    stripped = text.strip()
    start = text.index(stripped[0])
    for m in frozen.SMARTS_TOKEN_RE.finditer(text, start, start + len(stripped)):
        if m.lastindex == 6:
            return
        yield m


def first_bad_run(text):
    for m in smarts_tokens(text):
        if m.lastindex == 3:
            bad = outcome(lambda run: frozen.parse_bond_expr(run, m.start()), m.group())
            if bad[0] == "error":
                return bad
    return None


def equal_ring_runs(text, pos):
    """Whether the ring closure closed at ``pos`` has a bond run on both
    sides, written differently but parsed to the same expression."""
    tokens = list(smarts_tokens(text))
    at = next(k for k, m in enumerate(tokens) if m.start() == pos)
    numbers = [int(m.group().lstrip("%")) if m.lastindex == 4 else None for m in tokens]
    opened = max(k for k in range(at) if numbers[k] == numbers[at])
    runs = [tokens[k - 1].group() for k in (opened, at) if k and tokens[k - 1].lastindex == 3]
    exprs = [outcome(lambda run: frozen.parse_bond_expr(run, 0), run) for run in runs]
    return len(runs) == 2 and runs[0] != runs[1] and exprs[0][0] == "ok" and exprs[0] == exprs[1]


def smarts_rule_holds(text, old, new):
    """Whether a listed rule explains why the parsers differ on ``text``."""
    if old[0] != "error":
        return False
    _, _, message, pos = old
    if message.startswith("conflicting bond expressions") and equal_ring_runs(text, pos):
        return new[0] == "ok" or new[3] > pos or new[2].startswith(END_OF_INPUT)
    bad = first_bad_run(text)
    return bad is not None and new == bad and (pos >= bad[3] or message.startswith(END_OF_INPUT))


def test_smiles_walker_matches_the_frozen_parser():
    rng = random.Random(2027)
    corpus = synthetic_smiles(2000, seed=13)
    large = [to_smiles(g) for g in large_set(13, FULL_LADDER)]
    texts = corpus + large + random_texts(SMILES_TOKENS, corpus[:1000], 3000, rng)
    texts += ["C(C  ", "  C(C)(C \t", ".", "..", " . ", ".C", "C..C"]
    differ = []
    for text in texts:
        old, new = outcome(frozen.parse_smiles, text), outcome(parse_smiles, text)
        if old != new:
            assert new == smiles_rule(text, old, new), (text, old, new)
            differ.append(text)
    assert all(outcome(parse_smiles, t)[0] == "ok" for t in corpus + large)
    # Each rule shows on the seeded texts, and never on a valid molecule.
    assert {"C(C  ", ".", ".."} <= set(differ)
    assert not set(differ) & set(corpus + large)


def test_smarts_walker_matches_the_frozen_parser():
    rng = random.Random(2028)
    keys = [key.smarts for key in load_key_set(default_key_set_path())]
    texts = keys + random_texts(SMARTS_TOKENS, keys * 20, 3000, rng)
    texts += ["C(C  ", "C-![Q]", "C-!1CC)C1", "C-&-1CC-;-1", "C-!", "C=1CC-!1"]
    differ = []
    for text in texts:
        old, new = outcome(frozen.parse_smarts, text), outcome(parse_smarts, text)
        if old != new:
            assert smarts_rule_holds(text, old, new), (text, old, new)
            differ.append(text)
    assert all(outcome(parse_smarts, k)[0] == "ok" for k in keys)
    assert {"C-![Q]", "C-!1CC)C1", "C-&-1CC-;-1"} <= set(differ)
    assert "C(C  " not in differ
    assert outcome(parse_smarts, "C(C  ") == ("error", SmartsSyntaxError, "unclosed '('", 2)
