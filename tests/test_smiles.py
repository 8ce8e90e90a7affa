"""Parser, tokenizer, and canonical writer."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    ChargeOverflowError,
    MolfpError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnclosedRingError,
    canonical_ranks,
    from_smiles,
    sanitize,
    write_canonical_smiles,
)
from molfp.chem import BondOrder
from molfp.smiles import _Cells, parse_smiles, tokenize

from .oracles import (
    are_isomorphic,
    permute_draft,
    random_permutation,
    refine_oracle,
    seed_ranks_oracle,
)


class TestTokenizer:
    def test_spans_cover_input(self):
        text = "CC(=O)Oc1ccccc1C(=O)[O-]"
        tokens = tokenize(text)
        covered = sum(len(tok) for _, tok, _ in tokens)
        assert covered == len(text)
        assert [pos for _, _, pos in tokens] == sorted(pos for _, _, pos in tokens)

    def test_two_letter_organic(self):
        kinds = [tok for _, tok, _ in tokenize("ClCBr")]
        assert kinds == ["Cl", "C", "Br"]

    def test_percent_ring_closure(self):
        tokens = tokenize("C%12CC%12")
        ring_tokens = [t for t in tokens if t[1].startswith("%")]
        assert len(ring_tokens) == 2

    def test_unknown_symbol_position(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            tokenize("CC?C")
        assert exc.value.position == 2


class TestParser:
    def test_simple_chain(self):
        draft = parse_smiles("CCO")
        assert len(draft.atoms) == 3
        assert len(draft.bonds) == 2
        assert all(b.order is BondOrder.SINGLE for b in draft.bonds)

    def test_branch_degree(self):
        mol = from_smiles("C(C)(C)(C)C")
        assert mol.atoms[0].degree == 4

    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRingError):
            parse_smiles("C1CC")

    def test_unbalanced_parens(self):
        with pytest.raises(UnbalancedParenError):
            parse_smiles("C(C")
        with pytest.raises(UnbalancedParenError):
            parse_smiles("CC)C")

    def test_charge_overflow(self):
        with pytest.raises(ChargeOverflowError):
            parse_smiles("[O-16]")
        assert parse_smiles("[O-15]").atoms[0].formal_charge == -15

    def test_bracket_fields(self):
        atom = parse_smiles("[13CH3-]").atoms[0]
        assert atom.isotope == 13
        assert atom.element == 6
        assert atom.explicit_h == 3
        assert atom.formal_charge == -1

    def test_atom_map_discarded(self):
        draft = parse_smiles("[CH3:4][OH:2]")
        assert len(draft.atoms) == 2
        assert draft.atoms[0].isotope is None

    def test_stereo_ignored_with_flag(self):
        draft = parse_smiles("F/C=C/F")
        assert draft.stereo_ignored
        draft = parse_smiles("N[C@@H](C)C(=O)O")
        assert draft.stereo_ignored
        assert not parse_smiles("CCO").stereo_ignored

    def test_dot_disconnects(self):
        mol = from_smiles("C.C")
        assert len(mol.bonds) == 0

    def test_ring_bond_order_on_either_side(self):
        a = from_smiles("C=1CCCCC=1")
        b = from_smiles("C1CCCCC=1")
        c = from_smiles("C=1CCCCC1")
        assert sum(x.order is BondOrder.DOUBLE for x in a.bonds) == 1
        assert are_isomorphic(a, b) and are_isomorphic(a, c)

    def test_conflicting_ring_bond_orders(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C=1CCCCC#1")

    def test_ring_self_loop_rejected(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C11")

    def test_duplicate_ring_bond_rejected(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C12CC12")

    def test_empty_input(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("   ")

    def test_dangling_bond(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("CC=")
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C(=)C")

    def test_leading_bond_rejected(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("=CC")

    def test_unknown_bracket_element(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("[Zz]")

    def test_unclosed_bracket(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C[CH3")

    def test_errors_carry_positions(self):
        cases = ["C1CC", "CC)C", "[O-16]", "C(C", "CC=", "C?C"]
        for text in cases:
            with pytest.raises(SmilesSyntaxError) as exc:
                parse_smiles(text)
            assert 0 <= exc.value.position <= len(text)

    def test_aromatic_default_bond(self):
        draft = parse_smiles("c1ccccc1")
        assert all(b.order is BondOrder.AROMATIC for b in draft.bonds)

    def test_percent_ring_closure_roundtrip(self):
        mol = from_smiles("C%25CCCC%25")
        assert len(mol.rings.rings) == 1


# (text, error type, message, position) as the parser gives them.
# Tokenizer errors win over grammar errors anywhere in the text
# ("C)C$"); every position, inside a bracket atom too, counts in the
# text as given.
PINNED_ERRORS = [
    ("", SmilesSyntaxError, "empty SMILES", 0),
    ("   ", SmilesSyntaxError, "empty SMILES", 0),
    ("C)C$", SmilesSyntaxError, "unknown symbol '$'", 3),
    ("C(C$", SmilesSyntaxError, "unknown symbol '$'", 3),
    ("C$C)", SmilesSyntaxError, "unknown symbol '$'", 1),
    ("CC?C", SmilesSyntaxError, "unknown symbol '?'", 2),
    ("CC)C", UnbalancedParenError, "unmatched ')'", 2),
    ("C.)", UnbalancedParenError, "unmatched ')'", 2),
    ("  C)C", UnbalancedParenError, "unmatched ')'", 3),
    ("C(C", UnbalancedParenError, "unclosed '('", 2),
    ("C(C)(C", UnbalancedParenError, "unclosed '('", 5),
    # At the last non-blank character, as in SMARTS.
    ("C(C  ", UnbalancedParenError, "unclosed '('", 2),
    # A text without atoms is an error, at its first non-blank character.
    (".", SmilesSyntaxError, "no atoms in SMILES", 0),
    ("..", SmilesSyntaxError, "no atoms in SMILES", 0),
    (" . ", SmilesSyntaxError, "no atoms in SMILES", 1),
    ("C1CC", UnclosedRingError, "ring closure 1 never matched", 1),
    ("C1CC2", UnclosedRingError, "ring closure 1 never matched", 1),
    ("C%12CC%13", UnclosedRingError, "ring closure 12 never matched", 1),
    ("CC=", SmilesSyntaxError, "dangling bond symbol at end of input", 2),
    ("C(C)=", SmilesSyntaxError, "dangling bond symbol at end of input", 4),
    ("C(=)C", SmilesSyntaxError, "dangling bond symbol before ')'", 3),
    ("=CC", SmilesSyntaxError, "bond symbol before any atom", 0),
    ("C==C", SmilesSyntaxError, "two bond symbols in a row", 2),
    ("C=(C)C", SmilesSyntaxError, "bond symbol before branch open", 2),
    ("C=.C", SmilesSyntaxError, "bond symbol before '.'", 2),
    ("1CC", SmilesSyntaxError, "ring closure before any atom", 0),
    ("(C)C", SmilesSyntaxError, "branch before any atom", 0),
    ("C=1CCCCC#1", SmilesSyntaxError, "conflicting bond orders on ring closure 1", 9),
    ("C11", SmilesSyntaxError, "self-loop bond on atom 0", 2),
    ("C12CC12", SmilesSyntaxError, "duplicate bond between atoms 2 and 0", 6),
    ("C1C1", SmilesSyntaxError, "duplicate bond between atoms 1 and 0", 3),
    ("[Zz]", SmilesSyntaxError, "unknown element symbol 'Zz'", 0),
    ("  [Zz]", SmilesSyntaxError, "unknown element symbol 'Zz'", 2),
    ("[zz]", SmilesSyntaxError, "unknown aromatic symbol 'zz'", 0),
    ("[13]", SmilesSyntaxError, "malformed bracket atom '[13]'", 0),
    ("[C", SmilesSyntaxError, "unclosed bracket atom", 0),
    ("C[CH3", SmilesSyntaxError, "unclosed bracket atom", 1),
    ("[O-16]", ChargeOverflowError, "|charge| 16 exceeds 15", 0),
    ("[C++++++++++++++++]", ChargeOverflowError, "|charge| 16 exceeds 15", 0),
    ("C%1C", SmilesSyntaxError, "%% ring closure needs two digits", 1),
    (" C%", SmilesSyntaxError, "%% ring closure needs two digits", 2),
    # Tokenizer, bracket-atom and grammar errors all count leading whitespace.
    ("  C C ", SmilesSyntaxError, "unknown symbol ' '", 3),
    ("  [C;x]", SmilesSyntaxError, "malformed bracket atom '[C;x]'", 2),
    ("  C(=)C", SmilesSyntaxError, "dangling bond symbol before ')'", 5),
]


@pytest.mark.parametrize("text,kind,message,position", PINNED_ERRORS)
def test_pinned_parser_errors(text, kind, message, position):
    with pytest.raises(MolfpError) as exc:
        parse_smiles(text)
    assert type(exc.value) is kind
    assert (exc.value.message, exc.value.position) == (message, position)


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("C²CC²", "unknown symbol '²'", 1),
        ("C١CC١", "unknown symbol '١'", 1),
        ("C%²²C", "%% ring closure needs two digits", 1),
        ("[١٣C]", "malformed bracket atom '[١٣C]'", 0),
        ("[CH٣]", "malformed bracket atom '[CH٣]'", 0),
    ],
)
def test_non_ascii_digits_are_syntax_errors(text, message, position):
    with pytest.raises(SmilesSyntaxError) as exc:
        from_smiles(text)
    assert (exc.value.message, exc.value.position) == (message, position)


def test_dots_between_atoms_parse():
    assert len(parse_smiles(".C").atoms) == 1
    assert (len(parse_smiles("C..C").atoms), parse_smiles("C..C").bonds) == (2, [])


def test_duplicate_of_a_chain_bond_from_either_end():
    # Atom 1's chain bond comes from atom 0; closing onto it from either
    # end duplicates it.
    for text, message, position in [
        ("C1C1", "duplicate bond between atoms 1 and 0", 3),
        ("C(C1)1", "duplicate bond between atoms 0 and 1", 5),
    ]:
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles(text)
        assert (exc.value.message, exc.value.position) == (message, position)
    assert len(parse_smiles("C1.C1").bonds) == 1


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable + "²١٣", max_size=30))
def test_parser_never_crashes_outside_error_types(text):
    try:
        sanitize(parse_smiles(text))
    except MolfpError:
        pass  # documented failure modes only


class TestCanonicalRanks:
    def test_benzene_pre_tiebreak_symmetry(self):
        mol = from_smiles("c1ccccc1")
        assert len(set(refine_oracle(mol, seed_ranks_oracle(mol)))) == 1
        assert len(set(_Cells(mol).ranks())) == 1

    def test_full_ranks_are_permutation(self):
        mol = from_smiles("CC(=O)Oc1ccccc1C(=O)O")
        ranks = canonical_ranks(mol)
        assert sorted(ranks) == list(range(mol.n_atoms))

    def test_ethanol_three_ranks(self):
        assert sorted(canonical_ranks(from_smiles("CCO"))) == [0, 1, 2]

    def test_propane_terminals_tie_before_break(self):
        mol = from_smiles("CCC")
        for ranks in (refine_oracle(mol, seed_ranks_oracle(mol)), _Cells(mol).ranks()):
            assert ranks[0] == ranks[2] != ranks[1]


class TestCanonicalWriter:
    def test_same_molecule_same_string(self):
        assert write_canonical_smiles(from_smiles("OCC")) == write_canonical_smiles(
            from_smiles("CCO")
        )

    def test_single_atom(self):
        assert write_canonical_smiles(from_smiles("C")) == "C"

    def test_fixed_point(self, corpus200):
        for smi in corpus200[:60]:
            canon = write_canonical_smiles(from_smiles(smi))
            assert write_canonical_smiles(from_smiles(canon)) == canon

    def test_roundtrip_isomorphism(self, corpus200):
        for smi in corpus200:
            mol = from_smiles(smi)
            back = from_smiles(write_canonical_smiles(mol))
            if mol.n_atoms <= 12:
                assert are_isomorphic(mol, back), smi
            else:
                assert sorted(
                    (a.element, a.charge, a.implicit_h, a.aromatic, a.degree)
                    for a in mol.atoms
                ) == sorted(
                    (a.element, a.charge, a.implicit_h, a.aromatic, a.degree)
                    for a in back.atoms
                )
                assert sorted(b.order.value for b in mol.bonds) == sorted(
                    b.order.value for b in back.bonds
                )

    def test_permutation_invariance(self, corpus200):
        rng = random.Random(17)
        for smi in corpus200[:60]:
            draft = parse_smiles(smi)
            reference = write_canonical_smiles(sanitize(draft))
            for _ in range(5):
                perm = random_permutation(len(draft.atoms), rng)
                shuffled = sanitize(permute_draft(draft, perm))
                assert write_canonical_smiles(shuffled) == reference, smi

    def test_brackets_only_when_needed(self):
        assert write_canonical_smiles(from_smiles("[CH4]")) == "C"
        assert write_canonical_smiles(from_smiles("[NH4+]")) == "[NH4+]"
        assert write_canonical_smiles(from_smiles("[13CH4]")) == "[13CH4]"
        assert "[nH]" in write_canonical_smiles(from_smiles("c1cc[nH]c1"))

    def test_charge_and_isotope_roundtrip(self):
        for smi in ("[O-]C", "[13C]", "[Fe+2]", "[O-2]", "[2H]O"):
            mol = from_smiles(smi)
            back = from_smiles(write_canonical_smiles(mol))
            assert are_isomorphic(mol, back)

    def test_disconnected_components(self):
        text = write_canonical_smiles(from_smiles("[Na+].[O-]C(=O)C"))
        assert "." in text
        back = from_smiles(text)
        assert len(back.atoms) == 5

    def test_empty_molecule(self):
        from molfp.chem import MoleculeDraft

        assert write_canonical_smiles(sanitize(MoleculeDraft())) == ""
