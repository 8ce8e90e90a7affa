"""Pattern compilation, matching, oracle agreement, key sets."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    KeySetError,
    MolfpError,
    SmartsSyntaxError,
    UnsupportedPrimitiveError,
    count_unique,
    default_key_set_path,
    from_smiles,
    has_match,
    load_key_set,
    match,
    parse_smarts,
    sanitize,
)
from molfp.corpus import synthetic_smiles
from molfp.smarts import And, MoleculeView, Not, Or, Prim
from molfp.smiles import parse_smiles

from .oracles import (
    brute_force_matches,
    eval_atom_expr,
    eval_bond_expr,
    permute_draft,
    random_permutation,
)

ORACLE_PATTERNS = [
    "[OX2H]",
    "[C,N;R]",
    "C",
    "c",
    "[#6]",
    "[!#6;!#1]",
    "a",
    "[R]",
    "[R0]",
    "[r5]",
    "[R2]",
    "[CX4H3]",
    "C=O",
    "[CX3](=[OX1])[OX2H]",
    "[#6]~[#7]",
    "C-,=C",
    "[NX3;H2]",
    "ccc",
    "[cH0]",
    "C!@C",
    "[D3]",
    "[+]",
    "[-]",
    "*~*",
    "[#6]=,#[#6]",
    "C-;!@C",
    "[!C;!N]",
    "[cX3]:[cX3]",
]


class TestParsing:
    def test_primitive_conjunction(self):
        p = parse_smarts("[OX2H]")
        assert p.n_atoms == 1
        expr = p.atom_exprs[0]
        assert isinstance(expr, And)
        kinds = [e.kind for e in expr.args]
        assert kinds == ["symbol_aliphatic", "connectivity", "total_h"]

    def test_precedence_or_before_semi(self):
        expr = parse_smarts("[C,N;R]").atom_exprs[0]
        assert isinstance(expr, And)
        assert isinstance(expr.args[0], Or)
        assert expr.args[1] == Prim("in_ring")

    def test_bang_binds_tightest(self):
        expr = parse_smarts("[!C,N]").atom_exprs[0]
        assert isinstance(expr, Or)

    def test_recursive_unsupported(self):
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("$([CX3]=O)")
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("[$(C=O)]")

    def test_stereo_and_isotope_unsupported(self):
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("C/C=C/C")
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("[13C]")
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("[C@H]")

    def test_dot_unsupported(self):
        with pytest.raises(UnsupportedPrimitiveError):
            parse_smarts("C.C")

    def test_syntax_errors_have_positions(self):
        for text in ("", "C(", "C1CC", "[C", "[]", "C=", "[Cq]"):
            with pytest.raises(SmartsSyntaxError) as exc:
                parse_smarts(text)
            assert exc.value.position <= max(len(text), 1)

    def test_two_letter_elements_win(self):
        expr = parse_smarts("[Co]").atom_exprs[0]
        assert expr == Prim("symbol_aliphatic", 27)
        expr = parse_smarts("[Cl]").atom_exprs[0]
        assert expr == Prim("symbol_aliphatic", 17)

    def test_default_bond_aromatic_pair(self):
        p = parse_smarts("cc")
        assert p.bond_exprs[0] == Or((Prim("aromatic"), Prim("single")))
        p = parse_smarts("CC")
        assert p.bond_exprs[0] == Prim("single")

    def test_charge_forms(self):
        assert parse_smarts("[++]").atom_exprs[0] == Prim("charge", 2)
        assert parse_smarts("[+2]").atom_exprs[0] == Prim("charge", 2)
        assert parse_smarts("[-]").atom_exprs[0] == Prim("charge", -1)

    def test_ring_closure_bond_expr(self):
        p = parse_smarts("C1CCCCC=1")
        assert Prim("double") in p.bond_exprs

    def test_bond_or(self):
        assert parse_smarts("C-,=C").bond_exprs == (Or((Prim("single"), Prim("double"))),)

    def test_bond_not(self):
        assert parse_smarts("C!@C").bond_exprs == (Not(Prim("ring")),)

    def test_bond_and_forms(self):
        for text in ("C=;@C", "C=&@C"):
            assert parse_smarts(text).bond_exprs == (And((Prim("double"), Prim("ring"))),)

    def test_bond_not_needs_operand(self):
        with pytest.raises(SmartsSyntaxError) as exc:
            parse_smarts("C!C")
        assert exc.value.position == 2


class TestMatching:
    def test_hydroxyl_on_ethanol(self):
        ms = match(parse_smarts("[OX2H]"), from_smiles("CCO"))
        assert len(ms.mappings) == 1
        assert ms.mappings[0] == (2,)

    def test_ring_atoms_on_cyclohexane(self):
        ms = match(parse_smarts("[R]"), from_smiles("C1CCCCC1"))
        assert len(ms.mappings) == 6

    def test_benzene_automorphisms(self):
        ms = match(parse_smarts("c1ccccc1"), from_smiles("c1ccccc1"))
        assert len(ms.mappings) == 12
        assert len(ms.unique_atom_sets) == 1

    def test_count_unique_examples(self):
        assert count_unique(parse_smarts("c1ccccc1"), from_smiles("c1ccccc1")) == 1
        assert count_unique(parse_smarts("[OX2H]"), from_smiles("OCCO")) == 2

    def test_has_match_examples(self):
        assert not has_match(parse_smarts("[F,Cl,Br,I]"), from_smiles("CCO"))
        assert has_match(parse_smarts("[F,Cl,Br,I]"), from_smiles("CCCl"))

    def test_has_match_iff_mappings(self, mols200):
        patterns = [parse_smarts(p) for p in ("[OX2H]", "[R]", "C=O", "[!#6;!#1]")]
        for mol in mols200[:50]:
            for p in patterns:
                assert has_match(p, mol) == bool(match(p, mol).mappings)

    def test_empty_molecule(self):
        from molfp.chem import MoleculeDraft

        empty = sanitize(MoleculeDraft())
        assert match(parse_smarts("C"), empty).mappings == ()

    def test_injective(self, mols200):
        p = parse_smarts("CC")
        for mol in mols200[:20]:
            for m in match(p, mol).mappings:
                assert len(set(m)) == len(m)


class TestOracleAgreement:
    def test_grid(self, mols200):
        compiled = [parse_smarts(p) for p in ORACLE_PATTERNS]
        small = [m for m in mols200 if m.n_atoms <= 10][:25]
        assert len(small) >= 15
        for mol in small:
            for pat in compiled:
                if pat.n_atoms > 4:
                    continue
                got = set(match(pat, mol).mappings)
                want = brute_force_matches(pat, mol)
                assert got == want, (pat.text, mol.source_text)

    def test_unique_sets_invariant_under_relabeling(self, corpus200):
        rng = random.Random(23)
        pats = [parse_smarts(p) for p in ("[OX2H]", "c1ccccc1", "[R]", "C=O")]
        for smi in corpus200[:30]:
            draft = parse_smiles(smi)
            mol = sanitize(draft)
            perm = random_permutation(len(draft.atoms), rng)
            shuffled = sanitize(permute_draft(draft, perm))
            for pat in pats:
                ours = {
                    frozenset(perm[i] for i in s)
                    for s in match(pat, mol).unique_atom_sets
                }
                theirs = set(match(pat, shuffled).unique_atom_sets)
                assert ours == theirs


class TestMasks:
    def test_masks_match_tree_walk(self):
        pats = [k.pattern for k in load_key_set(default_key_set_path())]
        pats += [
            parse_smarts(p)
            for p in (
                "[!#6]", "[!R]", "C!@C", "C!-C", "*~*", "c:a",
                # Every primitive kind the parser emits, aliphatic and degree included.
                "[D2]", "[A]", "[R0]", "[r]", "[se]", "[-]", "C#C", "C=C",
            )
        ]
        atom_exprs = dict.fromkeys(e for p in pats for e in p.atom_exprs)
        bond_exprs = dict.fromkeys(e for p in pats for e in p.bond_exprs)
        # "C" has one atom and no bonds: negated bond prims run over nothing.
        for smi in synthetic_smiles(150, seed=13) + ["C"]:
            mol = from_smiles(smi)
            view = MoleculeView(mol)
            n_bonds = len(mol.bonds)
            for e in atom_exprs:
                m = view.mask(e)
                assert m >> mol.n_atoms == 0, (smi, e)
                for i in range(mol.n_atoms):
                    assert bool(m >> i & 1) == eval_atom_expr(e, mol, i), (smi, e, i)
            for e in bond_exprs:
                m = view.mask(e, bond=True)
                assert m >> n_bonds == 0, (smi, e)
                for b in range(n_bonds):
                    assert bool(m >> b & 1) == eval_bond_expr(e, mol, b), (smi, e, b)

    def test_negated_bond_prim_without_bonds(self):
        view = MoleculeView(from_smiles("C"))
        assert view.mask(Not(Prim("ring")), bond=True) == 0
        assert view.mask(Not(Prim("in_ring"))) == 1

    def test_atom_and_bond_masks_cached_apart(self):
        view = MoleculeView(from_smiles("c1ccc2ccccc2c1"))  # 10 atoms, 11 bonds
        assert view.mask(Prim("aromatic")) == (1 << 10) - 1
        assert view.mask(Prim("aromatic"), bond=True) == (1 << 11) - 1

    def test_pattern_larger_than_molecule(self):
        for text, smi in (("CCC", "CC"), ("*~*", "C")):
            pat, mol = parse_smarts(text), from_smiles(smi)
            assert not has_match(pat, mol)
            assert match(pat, mol).mappings == ()
            assert brute_force_matches(pat, mol) == set()


class TestKeySet:
    def test_default_key_set_loads(self):
        keys = load_key_set(default_key_set_path())
        assert len(keys) >= 40
        assert len({k.key_id for k in keys}) == len(keys)

    def test_malformed_file_fails_at_load(self, tmp_path):
        bad = tmp_path / "bad.smarts"
        bad.write_text("K1\t[OX2H]\n")  # two fields only
        with pytest.raises(KeySetError):
            load_key_set(bad)

    def test_bad_smarts_fails_at_load(self, tmp_path):
        bad = tmp_path / "bad.smarts"
        bad.write_text("K1\t$(C=O)\tnope\n")
        with pytest.raises(KeySetError):
            load_key_set(bad)

    def test_empty_key_set_rejected(self, tmp_path):
        empty = tmp_path / "empty.smarts"
        empty.write_text("# nothing here\n")
        with pytest.raises(KeySetError):
            load_key_set(empty)

    def test_missing_file(self, tmp_path):
        with pytest.raises(KeySetError):
            load_key_set(tmp_path / "absent.smarts")

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "ok.smarts"
        f.write_text("# header\n\nK1\t[OX2H]\thydroxyl\n\nK2\tC\tcarbon\n")
        keys = load_key_set(f)
        assert [k.key_id for k in keys] == ["K1", "K2"]


def test_patterns_survive_pickling():
    import pickle

    for text in ("[OX2H]", "[CX3](=[OX1])[OX2H]", "c1ccccc1"):
        pat = parse_smarts(text)
        clone = pickle.loads(pickle.dumps(pat))
        assert clone == pat
    assert has_match(pickle.loads(pickle.dumps(parse_smarts("[OX2H]"))), from_smiles("CCO"))


@pytest.mark.parametrize(
    "text,position", [("[#²]", 2), ("C%²²C", 1), ("C²CC²", 1), ("C١CC١", 1), ("[²C]", 1)]
)
def test_non_ascii_digits_are_syntax_errors(text, position):
    with pytest.raises(SmartsSyntaxError) as exc:
        parse_smarts(text)
    assert exc.value.position == position


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable + "²١٣", max_size=30))
def test_smarts_parser_never_crashes_outside_error_types(text):
    try:
        parse_smarts(text)
    except MolfpError:
        pass  # documented failure modes only
