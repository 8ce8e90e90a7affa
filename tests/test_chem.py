"""Sanitization, ring perception, distances, and atom invariants."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

from molfp import (
    AromaticityError,
    ValenceError,
    from_smiles,
    initial_atom_invariant,
    perceive_rings,
    sanitize,
)
from molfp.chem import AtomDraft, Bond, BondOrder, MoleculeDraft
from molfp.corpus import synthetic_smiles
from molfp.smiles import parse_smiles

from .oracles import (
    are_isomorphic,
    cyclomatic_number,
    enumerate_simple_cycles,
    greedy_min_cycle_basis,
    independent_cycles,
    permute_draft,
    random_permutation,
    sanitize_oracle,
    shortest_path_matrix,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402


def test_h2_double_bond_is_valence_error():
    draft = parse_smiles("[H]=[H]")  # syntactically fine
    assert len(draft.atoms) == 2
    with pytest.raises(ValenceError):
        sanitize(draft)


def test_ethanol_implicit_hydrogens():
    mol = from_smiles("CCO")
    assert [a.implicit_h for a in mol.atoms] == [3, 2, 1]


def test_benzene_aromatic_hydrogens():
    mol = from_smiles("c1ccccc1")
    assert all(a.aromatic for a in mol.atoms)
    assert [a.implicit_h for a in mol.atoms] == [1] * 6


def test_pyridine_nitrogen_has_no_hydrogen():
    mol = from_smiles("c1ccncc1")
    n_atom = next(a for a in mol.atoms if a.element == 7)
    assert n_atom.implicit_h == 0


def test_pyrrole_needs_bracket_nh():
    mol = from_smiles("c1cc[nH]c1")
    n_idx = next(i for i, a in enumerate(mol.atoms) if a.element == 7)
    assert mol.atoms[n_idx].implicit_h == 1


def test_furan_oxygen_lone_pair_accounting():
    mol = from_smiles("c1ccoc1")
    o_atom = next(a for a in mol.atoms if a.element == 8)
    assert o_atom.implicit_h == 0


def test_charged_valences():
    # ammonium and nitro demand charge-adjusted valences
    nh4 = from_smiles("[NH4+]")
    assert nh4.atoms[0].implicit_h == 4
    nitro = from_smiles("O=[N+]([O-])C")
    assert sum(a.charge for a in nitro.atoms) == 0
    with pytest.raises(ValenceError):
        from_smiles("C(C)(C)(C)(C)C")  # five bonds on carbon


def test_overvalent_bracket_rejected():
    with pytest.raises(ValenceError):
        from_smiles("[CH5]")


def test_aromatic_atom_outside_ring_rejected():
    with pytest.raises(AromaticityError):
        from_smiles("cc")


def test_aromatic_bond_between_aliphatic_atoms_rejected():
    with pytest.raises(AromaticityError):
        from_smiles("C:C")


def test_biphenyl_link_demoted_to_single():
    mol = from_smiles("c1ccccc1c1ccccc1")
    singles = [b for b in mol.bonds if b.order is BondOrder.SINGLE]
    assert len(singles) == 1
    b = singles[0]
    assert mol.atoms[b.i].aromatic and mol.atoms[b.j].aromatic


def test_sanitize_rejects_malformed_draft():
    # Drafts are plain data; sanitize is where they are checked.
    single, double = BondOrder.SINGLE, BondOrder.DOUBLE
    carbons = [AtomDraft(6), AtomDraft(6)]
    cases = [
        (carbons, [Bond(0, 5, single)], r"invalid bond endpoints \(0, 5\)"),
        (carbons, [Bond(1, 1, single)], r"invalid bond endpoints \(1, 1\)"),
        (carbons, [Bond(0, 1, single)] * 2, "duplicate bond between atoms 0 and 1"),
        (carbons, [Bond(0, 1, single), Bond(1, 0, double)], "duplicate bond between atoms 1 and 0"),
        ([AtomDraft(6), AtomDraft(0)], [], "atom 1: element out of range: 0"),
        ([AtomDraft(119)], [], "atom 0: element out of range: 119"),
        ([AtomDraft(6, isotope=-1)], [], "atom 0: negative isotope"),
        ([AtomDraft(8, explicit_h=-1)], [], "atom 0: negative explicit hydrogen count"),
    ]
    for atoms, bonds, message in cases:
        with pytest.raises(ValueError, match=message):
            sanitize(MoleculeDraft(atoms=list(atoms), bonds=list(bonds)))
    # The boundary values are accepted.
    sanitize(MoleculeDraft(atoms=[AtomDraft(1), AtomDraft(118, isotope=0, explicit_h=0)]))


# Drafts with two faults: the error sanitize has always raised first.
# Bond checks come before atom checks, and every atom's own checks
# (element, isotope, explicit H, aromatic outside a ring) before any
# valence.
_O, _F, _C = AtomDraft(8), AtomDraft(9), AtomDraft(6)
_S, _D, _T, _R = BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.TRIPLE, BondOrder.AROMATIC
TWO_FAULTS = [
    (
        [_O, _O, AtomDraft(0)], [Bond(0, 1, _T)],
        ValueError, "atom 2: element out of range: 0",
    ),
    (
        [_O, _O, AtomDraft(6, aromatic_flag=True)], [Bond(0, 1, _T)],
        AromaticityError, "aromatic atom 2 is not in any ring",
    ),
    (
        [_F, _F, _C, AtomDraft(6, isotope=-1)], [Bond(0, 1, _D), Bond(2, 3, _S)],
        ValueError, "atom 3: negative isotope",
    ),
    (
        [_O, _O, AtomDraft(8, explicit_h=-1)], [Bond(0, 1, _T)],
        ValueError, "atom 2: negative explicit hydrogen count",
    ),
    (
        [AtomDraft(0), _C, _C], [Bond(1, 2, _R)],
        AromaticityError, "aromatic bond between non-aromatic atoms 1 and 2",
    ),
    (
        [_C, _C], [Bond(0, 1, _S), Bond(1, 0, _S), Bond(0, 7, _S)],
        ValueError, "duplicate bond between atoms 1 and 0",
    ),
    (
        [AtomDraft(6, aromatic_flag=True), AtomDraft(119)], [],
        AromaticityError, "aromatic atom 0 is not in any ring",
    ),
    (
        [_O, _O, _F, _F], [Bond(0, 1, _T), Bond(2, 3, _D)],
        ValenceError, r"atom 0 \(O\): bond order sum 3 exceeds permitted valences \(2,\)",
    ),
]


@pytest.mark.parametrize("atoms,bonds,error,message", TWO_FAULTS)
def test_error_precedence(atoms, bonds, error, message):
    draft = MoleculeDraft(atoms=atoms, bonds=bonds)
    with pytest.raises(error, match=f"^{message}$") as exc:
        sanitize(draft)
    assert type(exc.value) is error
    with pytest.raises(error, match=f"^{message}$"):
        sanitize_oracle(draft)


@pytest.mark.parametrize(
    "smiles,message",
    [
        # The fluorine is overvalent too; the aromatic atom is reported.
        ("F(C)c", "aromatic atom 2 is not in any ring"),
        ("C(FCC)cC=C", "aromatic atom 4 is not in any ring"),
    ],
)
def test_aromatic_atom_reported_before_valence(smiles, message):
    with pytest.raises(AromaticityError, match=f"^{message}$"):
        from_smiles(smiles)


class TestSanitizeOracle:
    """sanitize builds the molecule the direct algorithm builds, in
    parsed and in shuffled atom orders."""

    @staticmethod
    def check(texts, rng, shuffles):
        for smi in texts:
            draft = parse_smiles(smi)
            assert sanitize(draft) == sanitize_oracle(draft), smi
            for _ in range(shuffles):
                shuffled = permute_draft(draft, random_permutation(len(draft.atoms), rng))
                assert sanitize(shuffled) == sanitize_oracle(shuffled), smi

    def test_corpus(self):
        self.check(synthetic_smiles(300, seed=13), random.Random(13), 3)

    def test_large_molecules(self):
        texts = [to_smiles(g) for g in large_set(13, FULL_LADDER)]
        assert len(texts) == 47
        self.check(texts, random.Random(13), 2)

    def test_equal_atoms_are_shared(self):
        a, b = from_smiles("CCO"), from_smiles("OCC")
        assert a.atoms[0] is b.atoms[2]
        assert parse_smiles("CC").atoms[0] is parse_smiles("CN").atoms[0]
        assert parse_smiles("[13CH3]C").atoms[0] is parse_smiles("[13CH3]O").atoms[0]


def test_empty_draft_gives_empty_molecule():
    mol = sanitize(MoleculeDraft())
    assert mol.n_atoms == 0 and mol.bonds == ()


class TestRings:
    def test_benzene_single_ring(self):
        mol = from_smiles("c1ccccc1")
        assert [len(r) for r in mol.rings.rings] == [6]

    def test_acyclic_has_no_rings(self):
        assert from_smiles("CCO").rings.rings == ()

    def test_naphthalene_two_six_rings(self):
        mol = from_smiles("c1ccc2ccccc2c1")
        assert sorted(len(r) for r in mol.rings.rings) == [6, 6]
        # exhaustive oracle: the greedy minimum basis picks the same rings
        edges = [(b.i, b.j) for b in mol.bonds]
        oracle = greedy_min_cycle_basis(mol.n_atoms, edges)
        assert sorted(mol.rings.rings) == sorted(oracle)

    def test_spiro_rings(self):
        mol = from_smiles("C1CCC2(CC1)CCCC2")
        assert sorted(len(r) for r in mol.rings.rings) == [5, 6]

    def test_cyclomatic_identity_on_corpus(self, mols200):
        for mol in mols200:
            edges = [(b.i, b.j) for b in mol.bonds]
            assert len(mol.rings.rings) == cyclomatic_number(mol.n_atoms, edges)

    def test_against_exhaustive_oracle_small(self, mols200):
        checked = 0
        for mol in mols200:
            if mol.n_atoms > 12 or not mol.rings.rings:
                continue
            edges = [(b.i, b.j) for b in mol.bonds]
            rings = list(mol.rings.rings)
            all_cycles = enumerate_simple_cycles(mol.n_atoms, edges)
            assert all(r in all_cycles for r in rings)
            assert independent_cycles(edges, rings)
            oracle = greedy_min_cycle_basis(mol.n_atoms, edges)
            assert sum(map(len, rings)) == sum(map(len, oracle))
            assert sorted(rings) == sorted(oracle)
            checked += 1
        assert checked >= 10

    def test_bridged_bicyclic_weight_matches_oracle(self):
        # bicyclo[2.2.2]octane has three 6-cycles; any two span the space
        mol = from_smiles("C1CC2CCC1CC2")
        edges = [(b.i, b.j) for b in mol.bonds]
        rings = list(mol.rings.rings)
        assert len(rings) == cyclomatic_number(mol.n_atoms, edges)
        assert independent_cycles(edges, rings)
        oracle = greedy_min_cycle_basis(mol.n_atoms, edges)
        assert sum(map(len, rings)) == sum(map(len, oracle))

    def test_membership_derives_from_basis(self):
        mol = from_smiles("Cc1ccccc1")
        ring_atoms = {i for ring in mol.rings.rings for i in ring}
        assert ring_atoms == {
            i for i in range(mol.n_atoms) if mol.rings.atom_in_ring[i]
        }
        methyl = next(
            i for i in range(mol.n_atoms) if not mol.atoms[i].aromatic
        )
        assert mol.rings.smallest_ring_size[methyl] is None
        assert mol.rings.atom_ring_count[methyl] == 0

    def test_deterministic_for_fixed_ordering(self):
        a = from_smiles("c1ccc2ccccc2c1")
        b = from_smiles("c1ccc2ccccc2c1")
        assert a.rings == b.rings

    # Exact rings (members, order and orientation) as perception has
    # always returned them: spiro, fused, bridged, several components, and
    # rings among bridges and acyclic branches.
    PINNED = [
        ("C1CCC2(CC1)CCCC2", ((3, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5))),
        ("c1ccc2ccccc2c1", ((0, 1, 2, 3, 8, 9), (3, 4, 5, 6, 7, 8))),
        (
            "c1ccc2cc3ccccc3cc2c1",
            ((0, 1, 2, 3, 12, 13), (3, 4, 5, 10, 11, 12), (5, 6, 7, 8, 9, 10)),
        ),
        ("C1CC2CCC1CC2", ((0, 1, 2, 3, 4, 5), (0, 1, 2, 7, 6, 5))),
        ("C1CC2CCC1C2", ((0, 1, 2, 6, 5), (2, 3, 4, 5, 6))),
        (
            "C12C3C4C1C5C2C3C45",
            ((0, 1, 2, 3), (0, 1, 6, 5), (0, 3, 4, 5), (1, 2, 7, 6), (2, 3, 4, 7)),
        ),
        ("C1CC1.c1ccccc1.CCO", ((0, 1, 2), (3, 4, 5, 6, 7, 8))),
        ("CC(C)c1ccc(CC(C)N)cc1", ((3, 4, 5, 6, 11, 12),)),
        ("c1ccccc1-c1ccccc1", ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))),
    ]

    @pytest.mark.parametrize("smiles,rings", PINNED)
    def test_pinned_rings(self, smiles, rings):
        info = from_smiles(smiles).rings
        assert info.rings == rings
        ring_bonds = {frozenset(p) for r in rings for p in zip(r, r[1:] + r[:1])}
        mol = from_smiles(smiles)
        assert info.bond_in_ring == tuple(frozenset((b.i, b.j)) in ring_bonds for b in mol.bonds)
        n = mol.n_atoms
        assert info.atom_ring_count == tuple(sum(a in r for r in rings) for a in range(n))
        assert info.smallest_ring_size == tuple(
            min((len(r) for r in rings if a in r), default=None) for a in range(n)
        )

    def test_pinned_derived_fields(self):
        info = from_smiles("CC(C)c1ccc(CC(C)N)cc1").rings
        assert info.bond_in_ring == (
            False, False, False, True, True, True, False, False, False, False, True, True, True
        )
        assert info.atom_ring_count == (0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1)
        assert info.smallest_ring_size == (
            None, None, None, 6, 6, 6, 6, None, None, None, None, 6, 6
        )

    def test_random_graphs_against_exhaustive_oracle(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 9)
            edges: list[tuple[int, int]] = []
            for _ in range(rng.randint(0, n + 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j and (i, j) not in edges and (j, i) not in edges:
                    edges.append((i, j))
            info = perceive_rings(n, [Bond(i, j, BondOrder.SINGLE) for i, j in edges])
            rings = list(info.rings)
            assert len(rings) == cyclomatic_number(n, edges)
            all_cycles = enumerate_simple_cycles(n, edges)
            assert all(r in all_cycles for r in rings)
            assert independent_cycles(edges, rings)
            oracle = greedy_min_cycle_basis(n, edges)
            assert sum(map(len, rings)) == sum(map(len, oracle))
            on_cycle = {frozenset(p) for c in all_cycles for p in zip(c, c[1:] + c[:1])}
            assert info.bond_in_ring == tuple(frozenset(e) in on_cycle for e in edges)

    def test_perceive_rings_direct_call(self):
        bonds = [Bond(i, (i + 1) % 6, BondOrder.SINGLE) for i in range(6)]
        info = perceive_rings(6, bonds)
        assert info.rings == ((0, 1, 2, 3, 4, 5),)
        assert info.smallest_ring_size == (6,) * 6


class TestShortestPaths:
    def test_chain(self):
        mol = from_smiles("CCO")
        d = shortest_path_matrix(mol)
        assert d[0][2] == 2 and d[2][0] == 2

    def test_benzene_distance_multiset(self):
        mol = from_smiles("c1ccccc1")
        d = shortest_path_matrix(mol)
        for i in range(6):
            row = sorted(d[i][j] for j in range(6) if j != i)
            assert row == [1, 1, 2, 2, 3]

    def test_disconnected_infinite(self):
        mol = from_smiles("C.C")
        d = shortest_path_matrix(mol)
        assert math.isinf(d[0][1])

    def test_metric_properties(self, mols200):
        for mol in mols200[:40]:
            d = shortest_path_matrix(mol)
            n = mol.n_atoms
            for i in range(n):
                assert d[i][i] == 0
                for j in range(i + 1, n):
                    assert d[i][j] == d[j][i]
                    for k in range(n):
                        if math.isfinite(d[i][k]) and math.isfinite(d[k][j]):
                            assert d[i][j] <= d[i][k] + d[k][j]


class TestAtomInvariant:
    def test_equivalent_atoms_share_codes(self):
        mol = from_smiles("CCC")
        codes = [initial_atom_invariant(mol, i) for i in range(3)]
        assert codes[0] == codes[2]
        assert codes[0] != codes[1]

    def test_ethanol_three_distinct_codes(self):
        mol = from_smiles("CCO")
        codes = {initial_atom_invariant(mol, i) for i in range(3)}
        assert len(codes) == 3

    def test_codes_are_32_bit(self, mols200):
        for mol in mols200[:20]:
            for i in range(mol.n_atoms):
                assert 0 <= initial_atom_invariant(mol, i) < 2**32


def test_total_implicit_h_permutation_invariant(corpus200):
    rng = random.Random(5)
    for smi in corpus200[:50]:
        draft = parse_smiles(smi)
        mol = sanitize(draft)
        total = sum(a.implicit_h for a in mol.atoms)
        perm = random_permutation(len(draft.atoms), rng)
        shuffled = sanitize(permute_draft(draft, perm))
        assert sum(a.implicit_h for a in shuffled.atoms) == total


def test_resanitize_roundtrip_isomorphic(corpus200):
    from molfp import write_canonical_smiles

    for smi in corpus200[:40]:
        mol = from_smiles(smi)
        if mol.n_atoms > 12:
            continue
        again = from_smiles(write_canonical_smiles(mol))
        assert are_isomorphic(mol, again)
