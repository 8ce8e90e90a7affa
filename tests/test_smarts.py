"""Pattern compilation, matching, oracle agreement, key sets."""

from __future__ import annotations

import pickle
import random
import signal
import string
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    BatchOptions,
    FingerprintConfig,
    Fingerprinter,
    KeySet,
    KeySetError,
    MatchLimitError,
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
    substructure_fingerprint,
    transform_batch,
)
from molfp.corpus import synthetic_smiles
from molfp.smarts import (
    MAX_MAPPINGS,
    MAX_STEPS,
    And,
    CompiledPatterns,
    MoleculeView,
    Not,
    Or,
    Prim,
    SmartsKey,
    _assignment_order,
    _candidate_counts,
    _CLASS_CACHE_SIZE,
    _search,
    _steps,
)
from molfp.smiles import parse_smiles

from .oracles import (
    HAND_KEY_TEXTS,
    brute_force_matches,
    eval_atom_expr,
    eval_bond_expr,
    permute_draft,
    random_permutation,
    substructure_row_oracle,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402

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


def _slot_masks(pats, mol):
    """The patterns compiled together, and their slot masks on ``mol``."""
    compiled = CompiledPatterns(pats)
    return compiled, compiled.masks(MoleculeView(mol))


class TestMasks:
    def test_masks_match_tree_walk(self):
        pats = [k.pattern for k in load_key_set(default_key_set_path())]
        pats += [
            parse_smarts(p)
            for p in (
                "[!#6]", "[!R]", "C!@C", "C!-C", "*~*", "c:a",
                # Every primitive kind the parser emits, aliphatic and degree included.
                "[D2]", "[A]", "[R0]", "[r]", "[se]", "[-]", "C#C", "C=C",
                "[H1]", "[X4]", "[D1]", "[#1]", "[NH3+]",
            )
        ]
        compiled = CompiledPatterns(pats)
        # Each (expression, slot) pair once: a slot shared by two
        # expressions is checked against both.
        atom_slots = dict.fromkeys(
            pair for p, aslots, _ in compiled.plan for pair in zip(p.atom_exprs, aslots)
        )
        bond_slots = dict.fromkeys(
            pair for p, _, bslots in compiled.plan for pair in zip(p.bond_exprs, bslots)
        )
        # "C" has one atom and no bonds: negated bond prims run over nothing.
        # Hydrogen atoms count in total_h and connectivity but not in
        # degree; isotopes and charges set atoms of one element apart.
        hydrogens = [
            "[H]OC([H])([H])C", "[2H]C([2H])([2H])O", "[H][N+]([H])([H])C", "[H]c1ccccc1",
        ]
        for smi in synthetic_smiles(150, seed=13) + ["C"] + hydrogens:
            mol = from_smiles(smi)
            masks = compiled.masks(MoleculeView(mol))
            n_bonds = len(mol.bonds)
            for e, slot in atom_slots:
                m = masks[slot]
                assert m >> mol.n_atoms == 0, (smi, e)
                for i in range(mol.n_atoms):
                    assert bool(m >> i & 1) == eval_atom_expr(e, mol, i), (smi, e, i)
            for e, slot in bond_slots:
                m = masks[slot]
                assert m >> n_bonds == 0, (smi, e)
                for b in range(n_bonds):
                    assert bool(m >> b & 1) == eval_bond_expr(e, mol, b), (smi, e, b)

    def test_negated_bond_prim_without_bonds(self):
        compiled, masks = _slot_masks([parse_smarts("[!R]!@[!R]")], from_smiles("C"))
        _, aslots, bslots = compiled.plan[0]
        assert masks[bslots[0]] == 0
        assert masks[aslots[0]] == 1

    def test_atom_and_bond_masks_cached_apart(self):
        mol = from_smiles("c1ccc2ccccc2c1")  # 10 atoms, 11 bonds
        compiled, masks = _slot_masks([parse_smarts("a:a")], mol)
        _, aslots, bslots = compiled.plan[0]
        assert aslots[0] == aslots[1] != bslots[0]
        assert masks[aslots[0]] == (1 << 10) - 1
        assert masks[bslots[0]] == (1 << 11) - 1

    def test_each_expression_one_slot(self):
        pats = [k.pattern for k in load_key_set(default_key_set_path())]
        compiled = CompiledPatterns(pats)

        def subexprs(e):
            yield e
            if not isinstance(e, Prim):
                for arg in (e.arg,) if isinstance(e, Not) else e.args:
                    yield from subexprs(arg)

        distinct = {(False, s) for p in pats for e in p.atom_exprs for s in subexprs(e)}
        distinct |= {(True, s) for p in pats for e in p.bond_exprs for s in subexprs(e)}
        assert len(compiled.ops) == len(distinct)
        # Post-order: a composite's operands have lower slots, in its context.
        for slot, (op, bond, arg) in enumerate(compiled.ops):
            if op is not Prim:
                operands = (arg,) if op is Not else arg
                assert all(a < slot and compiled.ops[a][1] == bond for a in operands)
        atom = {s for _, aslots, _ in compiled.plan for s in aslots}
        bond = {s for _, _, bslots in compiled.plan for s in bslots}
        assert not atom & bond
        assert len(atom) == len({e for p in pats for e in p.atom_exprs})
        assert len(bond) == len({e for p in pats for e in p.bond_exprs})

    def test_pattern_larger_than_molecule(self):
        for text, smi in (("CCC", "CC"), ("*~*", "C")):
            pat, mol = parse_smarts(text), from_smiles(smi)
            assert not has_match(pat, mol)
            assert match(pat, mol).mappings == ()
            assert brute_force_matches(pat, mol) == set()


def _keys(texts):
    return tuple(
        SmartsKey(f"H{i:02d}", text, "", parse_smarts(text)) for i, text in enumerate(texts)
    )


HAND_KEYS = _keys(HAND_KEY_TEXTS)


class TestCompiledKeySet:
    """The family's rows equal one search per key (the oracle), binary
    and count."""

    def _check(self, mols, keys):
        key_set = KeySet(keys)
        for mol in mols:
            for variant in ("binary", "count"):
                got = substructure_fingerprint(mol, key_set, variant).entries
                want = substructure_row_oracle(mol, keys, variant)
                assert got == want, (mol.source_text, variant)

    def test_corpus_sample(self):
        smiles = random.Random(13).sample(synthetic_smiles(2000, seed=13), 300)
        mols = [from_smiles(smi) for smi in smiles]
        self._check(mols, tuple(load_key_set(default_key_set_path())))
        self._check(mols, HAND_KEYS)

    def test_large_molecules(self):
        mols = [from_smiles(to_smiles(g)) for g in large_set(13, FULL_LADDER)]
        assert len(mols) == 47
        self._check(mols, tuple(load_key_set(default_key_set_path())))
        # The 34-atom chain has more than MAX_MAPPINGS mappings on the
        # polyaromatics; a 12-atom one has at most 15,412.
        chain = _keys(["*~" * 11 + "*"])
        self._check(mols, tuple(k for k in HAND_KEYS if k.pattern.n_atoms < 34) + chain)

    def test_hand_written_keys_on_small_molecules(self):
        smiles = ["C", "CC", "CCO", "c1ccccc1", "c1ccc2ccccc2c1", "C1CC1CN", "OC(=O)c1ccncc1"]
        self._check([from_smiles(smi) for smi in smiles], HAND_KEYS)

    def test_one_atom_count_is_its_atoms(self):
        mol = from_smiles("OCC(O)CO")
        keys = _keys(["[OX2H]", "C", "[#6,#8]"])
        assert substructure_fingerprint(mol, keys, "count").entries == {0: 3, 1: 3, 2: 6}
        assert substructure_fingerprint(mol, keys, "binary").entries == {0: 1, 1: 1, 2: 1}

    def test_plain_tuple_and_key_set_agree(self):
        keys = load_key_set(default_key_set_path())
        assert isinstance(keys, KeySet) and keys == tuple(keys)
        for smi in synthetic_smiles(50, seed=13):
            mol = from_smiles(smi)
            for variant in ("binary", "count"):
                assert (
                    substructure_fingerprint(mol, tuple(keys), variant)
                    == substructure_fingerprint(mol, keys, variant)
                )

    def test_compiled_form_travels_with_the_keys(self):
        keys = load_key_set(default_key_set_path())
        clone = pickle.loads(pickle.dumps(keys))
        assert isinstance(clone, KeySet) and clone == keys
        assert clone.compiled.plan == keys.compiled.plan
        assert clone.compiled.ops == keys.compiled.ops
        fp = Fingerprinter(FingerprintConfig(family="substructure"))
        assert isinstance(fp.keys, KeySet)
        assert isinstance(pickle.loads(pickle.dumps(fp)).keys, KeySet)


def _per_molecule_order(pattern, mol, first_only):
    """The pattern's matched atom sets by a search in the order
    ``_assignment_order`` picks for this molecule, as ``match`` does."""
    compiled = CompiledPatterns((pattern,))
    view = MoleculeView(mol)
    m = compiled.masks(view)
    _, aslots, bslots = compiled.plan[0]
    counts = _candidate_counts(aslots, bslots, m, view)
    if not counts:
        return set()
    order = _assignment_order(pattern, counts)
    return _search(pattern, order, _steps(pattern, aslots, bslots, order), m, view, first_only)


class TestSearchPlan:
    """Rows searched along routes that a compiled key set plans once per
    pattern and root query atom."""

    def test_rows_unchanged_under_atom_permutations(self):
        keys = tuple(load_key_set(default_key_set_path()))
        keys += tuple(k for k in HAND_KEYS if k.pattern.n_atoms < 34)
        key_set = KeySet(keys)
        rng = random.Random(29)
        corpus = random.Random(29).sample(synthetic_smiles(2000, seed=13), 150)
        large = [to_smiles(g) for g in large_set(13, FULL_LADDER)]
        relabeled = 0
        for smi in corpus + large:
            draft = parse_smiles(smi)
            mol = sanitize(draft)
            want = {
                variant: substructure_row_oracle(mol, keys, variant)
                for variant in ("binary", "count")
            }
            for _ in range(2):
                perm = random_permutation(len(draft.atoms), rng)
                shuffled = sanitize(permute_draft(draft, perm))
                # Ring perception picks its cycle basis by atom order, so
                # on some polyaromatics an atom's ring count and smallest
                # ring size move with the labels; there the permuted
                # molecule is a different target, checked by the oracle.
                same = all(
                    (mol.rings.atom_ring_count[i], mol.rings.smallest_ring_size[i])
                    == (shuffled.rings.atom_ring_count[j], shuffled.rings.smallest_ring_size[j])
                    for i, j in enumerate(perm)
                )
                relabeled += same
                view = MoleculeView(shuffled)
                for variant, row in want.items():
                    if not same:
                        row = substructure_row_oracle(shuffled, keys, variant)
                    got = key_set.compiled.row(view, count=variant == "count")
                    assert got == row, (smi, perm, variant)
        assert relabeled >= 2 * (len(corpus) + 40)

    def test_has_match_and_count_unique_equal_the_per_molecule_order(self):
        smiles = ["C", "CC", "CCO", "c1ccccc1", "c1ccc2ccccc2c1", "C1CC1CN", "OC(=O)c1ccncc1"]
        smiles += synthetic_smiles(60, seed=13)
        for smi in smiles:
            mol = from_smiles(smi)
            for key in HAND_KEYS:
                pat = key.pattern
                sets = _per_molecule_order(pat, mol, first_only=False)
                assert has_match(pat, mol) == bool(_per_molecule_order(pat, mol, True)), smi
                assert count_unique(pat, mol) == len(sets), (smi, pat.text)
                # Every root's route finds the same atom sets.
                compiled = CompiledPatterns((pat,))
                view = MoleculeView(mol)
                m = compiled.masks(view)
                if _candidate_counts(*compiled.plan[0][1:], m, view):
                    for root in range(pat.n_atoms):
                        order, steps = compiled.route(0, root)
                        assert _search(pat, order, steps, m, view, False) == sets, (smi, order)

    def test_routes_place_every_query_atom_once(self):
        compiled = CompiledPatterns([k.pattern for k in HAND_KEYS])
        for k, (pattern, aslots, bslots) in enumerate(compiled.plan):
            for root in range(pattern.n_atoms):
                order, steps = compiled.route(k, root)
                assert order[0] == root
                assert sorted(order) == list(range(pattern.n_atoms))
                # Each pattern bond is checked once, at its later atom.
                assert sum(len(links) for _, links in steps) == len(pattern.bond_list)
                assert [aslot for aslot, _ in steps] == [aslots[q] for q in order]
                assert compiled.route(k, root) is compiled.route(k, root)
        assert len(compiled.routes) == sum(p.n_atoms for p, _, _ in compiled.plan)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.routes == {} and clone.route(2, 1) == compiled.route(2, 1)

    def test_class_cache_is_bounded(self):
        # Each isotope of carbon is its own atom class.
        compiled = CompiledPatterns([parse_smarts(p) for p in ("[CH4]", "[!R]", "C~*")])
        mols = [from_smiles(f"[{i}CH4]") for i in range(1, _CLASS_CACHE_SIZE + 101)]
        first = compiled.masks(MoleculeView(mols[0]))
        for mol in mols:
            assert compiled.masks(MoleculeView(mol)) == first
        assert compiled._class_slots.cache_info().currsize == _CLASS_CACHE_SIZE
        assert compiled.masks(MoleculeView(mols[0])) == first


DENDRIMER_2 = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
_ARM = "C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
DENDRIMER_3 = f"C({_ARM})({_ARM})({_ARM}){_ARM}"


class TestEnumerationCap:
    """One pattern enumerates at most MAX_MAPPINGS mappings per molecule."""

    def test_cap_above_two_generation_self_match(self):
        pat, mol = parse_smarts(DENDRIMER_2), from_smiles(DENDRIMER_2)
        assert len(match(pat, mol).mappings) == 31_104 < MAX_MAPPINGS
        assert count_unique(pat, mol) == 1
        row = substructure_fingerprint(mol, _keys([DENDRIMER_2]), "count")
        assert row.entries == {0: 1}

    def test_three_generation_self_match_hits_cap(self):
        pat, mol = parse_smarts(DENDRIMER_3), from_smiles(DENDRIMER_3)
        assert mol.n_atoms == 53
        start = time.perf_counter()
        for fn in (match, count_unique):
            with pytest.raises(MatchLimitError, match="more than"):
                fn(pat, mol)
        with pytest.raises(MatchLimitError):
            substructure_fingerprint(mol, _keys([DENDRIMER_3]), "count")
        assert has_match(pat, mol)
        assert substructure_fingerprint(mol, _keys([DENDRIMER_3])).entries == {0: 1}
        assert time.perf_counter() - start < 15.0

    def test_pattern_with_more_bonds_than_molecule_ends_at_once(self):
        # The three-generation pattern with one more bond, closing a ring
        # from a leaf of the first arm to the last leaf, has exponentially
        # many partial mappings onto the acyclic molecule and none whole;
        # the bond-count screen ends the search before it starts.
        first = "C(C(C1)(C)C)(C(C)(C)C)C(C)(C)C"
        last = "C(C(C)(C)C)(C(C)(C)C)C(C)(C)C1"
        pat, mol = parse_smarts(f"C({first})({_ARM})({_ARM}){last}"), from_smiles(DENDRIMER_3)
        assert (pat.n_atoms, len(pat.bond_list)) == (53, 53)
        assert (mol.n_atoms, len(mol.bonds)) == (53, 52)

        def timeout(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            found = has_match(pat, mol), count_unique(pat, mol)
        except TimeoutError:
            found = "still searching after 10 s"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert found == (False, 0)

    def test_search_steps_are_bounded(self):
        # The three-generation pattern with one leaf of the first arm moved
        # to hang off the last leaf: a tree of 53 atoms and 52 bonds, like
        # the molecule, so it passes both screens, has no mapping and
        # exponentially many partial ones; it ends at MAX_STEPS.
        first = "C(C(C)C)(C(C)(C)C)C(C)(C)C"
        last = "C(C(C)(C)C)(C(C)(C)C)C(C)(C)CC"
        pat, mol = parse_smarts(f"C({first})({_ARM})({_ARM}){last}"), from_smiles(DENDRIMER_3)
        assert (pat.n_atoms, len(pat.bond_list)) == (53, 52)

        def timeout(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with pytest.raises(MatchLimitError, match=f"more than {MAX_STEPS} candidate atoms"):
                has_match(pat, mol)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_bond_no_target_bond_satisfies(self):
        mol = from_smiles("CCC(C)CO")
        for text in ("C#C", "C=C", "C:C", "C@C", "O=C"):
            pat = parse_smarts(text)
            assert not has_match(pat, mol) and count_unique(pat, mol) == 0, text
        assert count_unique(parse_smarts("C!@C"), mol) == 4

    def test_batch_reports_the_record(self):
        fp = Fingerprinter(
            FingerprintConfig(family="substructure", variant="count"),
            keys=_keys(["[OX2H]", DENDRIMER_3]),
        )
        records = ["CCO", DENDRIMER_3, DENDRIMER_2, "OCCO"]
        start = time.perf_counter()
        with pytest.raises(MatchLimitError) as exc:
            transform_batch(records, fp, BatchOptions(jobs=1))
        assert exc.value.record_index == 1
        matrix, report = transform_batch(
            records, fp, BatchOptions(jobs=1, error_mode="skip"), output="sparse"
        )
        assert report.n_ok == 3 and matrix.rows == 3
        assert [(i, kind) for i, kind, _ in report.failures] == [(1, "MatchLimitError")]
        assert time.perf_counter() - start < 15.0


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
        bad.write_text("K1\t[OX2H]\thydroxyl\nK1\tC\tcarbon\n")
        with pytest.raises(KeySetError, match=":2: missing or duplicate key id 'K1'"):
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


# Ring-closure errors point at the closure token, as parse_smiles's do.
@pytest.mark.parametrize(
    "text,message,position",
    [
        ("1CC", "ring closure before any atom", 0),
        ("%12CC", "ring closure before any atom", 0),
        ("C=1CCCCC#1", "conflicting bond expressions on ring closure 1", 9),
        ("C11", "ring closure 1 forms a self-loop", 2),
        ("C1C1", "duplicate bond between atoms 1 and 0", 3),
        ("C12CC12", "duplicate bond between atoms 2 and 0", 6),
        ("C(C1)1", "duplicate bond between atoms 0 and 1", 5),
        ("C%10C%10", "duplicate bond between atoms 1 and 0", 5),
        ("C1CC", "ring closure 1 never matched", 1),
        ("CC-C1CC", "ring closure 1 never matched", 4),
    ],
)
def test_ring_closure_errors_at_the_closure_token(text, message, position):
    with pytest.raises(SmartsSyntaxError) as exc:
        parse_smarts(text)
    assert (exc.value.message, exc.value.position) == (message, position)


# A bond expression binds only an atom or a ring closure, as in SMILES;
# an error inside the expression comes first in the text and wins.
@pytest.mark.parametrize(
    "text,message,position",
    [
        ("C=(C)C", "bond expression before branch open", 2),
        ("C(C=)C", "dangling bond expression before ')'", 4),
        ("C(=)C", "dangling bond expression before ')'", 3),
        ("[NX3+]!(=[OX1])[OX1-]", "bad bond expression char ''", 7),
        ("[CX3](=[OX1]),([#6])[#6]", "bad bond expression char ','", 13),
    ],
)
def test_bond_expression_before_a_parenthesis(text, message, position):
    with pytest.raises(SmartsSyntaxError) as exc:
        parse_smarts(text)
    assert (exc.value.message, exc.value.position) == (message, position)


# A bond expression is read when it arrives, so an error inside it wins
# over every later error; an open branch is reported at the last
# non-blank character.
@pytest.mark.parametrize(
    "text,kind,message,position",
    [
        ("C-![Q]", SmartsSyntaxError, "bad bond expression char ''", 3),
        ("C-!1CC)C1", SmartsSyntaxError, "bad bond expression char ''", 3),
        ("C-!", SmartsSyntaxError, "bad bond expression char ''", 3),
        ("C(C  ", SmartsSyntaxError, "unclosed '('", 2),
    ],
)
def test_pinned_parser_errors(text, kind, message, position):
    with pytest.raises(MolfpError) as exc:
        parse_smarts(text)
    assert type(exc.value) is kind
    assert (exc.value.message, exc.value.position) == (message, position)


def test_ring_closure_runs_compared_as_parsed():
    # -&- and -;- are written differently but parse to the same And.
    pattern = parse_smarts("C-&-1CC-;-1")
    assert pattern.bond_exprs[-1] == And((Prim("single"), Prim("single")))


# Positions count in the text as given: leading whitespace shifts each
# error's position by its length.
@pytest.mark.parametrize(
    "text,position",
    [
        ("  C(=)C", 5),   # a bond expression before ')'
        ("\tC-", 2),      # a dangling bond expression at the end
        ("  [C;x]", 5),   # inside a bracket atom
        ("  C=,C", 5),    # inside a bond expression
        (" C(C", 3),      # an unclosed branch, at the last character
        ("  $(C)", 2),    # a character that starts no token
        ("  C C ", 3),    # whitespace inside the pattern
        ("  )C", 2),      # an unmatched ')'
    ],
)
def test_error_positions_count_leading_whitespace(text, position):
    with pytest.raises(MolfpError) as exc:
        parse_smarts(text)
    with pytest.raises(MolfpError) as bare:
        parse_smarts(text.lstrip())
    shift = len(text) - len(text.lstrip())
    assert type(exc.value) is type(bare.value)
    assert exc.value.message == bare.value.message
    assert (exc.value.position, bare.value.position + shift) == (position, position)


def test_ring_closures_between_distinct_pairs_are_kept():
    assert parse_smarts("C1CC1").bond_list == ((0, 1), (1, 2), (2, 0))
    assert parse_smarts("C12CC1C2").bond_list == ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable + "²١٣", max_size=30))
def test_smarts_parser_never_crashes_outside_error_types(text):
    try:
        parse_smarts(text)
    except MolfpError:
        pass  # documented failure modes only
