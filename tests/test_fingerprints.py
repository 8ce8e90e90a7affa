"""Fingerprint families: worked examples, invariants, folding."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    ConfigError,
    FingerprintConfig,
    FingerprintVector,
    Fingerprinter,
    FoldError,
    ShapeError,
    atom_pair,
    compute,
    descriptors,
    ecfp,
    fcfp,
    fold,
    from_smiles,
    path_fingerprint,
    sanitize,
    substructure_fingerprint,
    topological_torsion,
)
from molfp.chem import MoleculeDraft
from molfp.corpus import synthetic_smiles
from molfp.fingerprints import _feature_class_code
from molfp.smarts import default_key_set_path, load_key_set
from molfp.smiles import parse_smiles

from .oracles import (
    atom_invariant_oracle,
    atom_pair_feature_count,
    circular_oracle,
    ecfp_feature_count,
    path_feature_count,
    permute_draft,
    random_permutation,
    torsion_feature_count,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402

KEYS = load_key_set(default_key_set_path())


def cfg(family: str, **kw) -> FingerprintConfig:
    return FingerprintConfig(family=family, **kw)


def total(v: FingerprintVector) -> int:
    return sum(v.entries.values())


class TestEcfp:
    def test_methane_radius0(self):
        v = ecfp(from_smiles("C"), cfg("ecfp", radius=0, variant="count"))
        assert len(v.entries) == 1 and total(v) == 1

    def test_ethanol_radius1_total(self):
        v = ecfp(from_smiles("CCO"), cfg("ecfp", radius=1, variant="count"))
        assert total(v) == 6

    def test_ethanol_radius2_dedup(self):
        # radius-2 environments all duplicate radius-1 bond sets on a 3-atom chain
        v = ecfp(from_smiles("CCO"), cfg("ecfp", radius=2, variant="count"))
        assert total(v) == 6

    def test_atom_order_invariance(self):
        a = ecfp(from_smiles("OCC"), cfg("ecfp"))
        b = ecfp(from_smiles("CCO"), cfg("ecfp"))
        assert a.entries == b.entries

    def test_count_matches_environment_oracle(self, mols200):
        for mol in mols200[:60]:
            if mol.n_atoms > 10:
                continue
            v = ecfp(mol, cfg("ecfp", variant="count", radius=2))
            assert total(v) == ecfp_feature_count(mol, 2), mol.source_text

    def test_count_matches_environment_oracle_radius3(self, mols200):
        for mol in mols200[:40]:
            v = ecfp(mol, cfg("ecfp", variant="count", radius=3))
            assert total(v) == ecfp_feature_count(mol, 3), mol.source_text

    def test_empty_molecule(self):
        v = ecfp(sanitize(MoleculeDraft()), cfg("ecfp"))
        assert v.entries == {}


class TestCircularOracle:
    """``ecfp`` and ``fcfp`` rows equal the frozenset-and-sort oracle,
    binary and count, radius 0-3, at length 2048 and at 64, where folded
    codes collide."""

    DISCONNECTED = ("[Na+].[Cl-]", "C.C", "[Na+].[Na+].[O-2]")  # isolated atoms share env {}

    def _check(self, mol):
        n = range(mol.n_atoms)
        seeds = {
            "ecfp": [atom_invariant_oracle(mol, i) for i in n],
            "fcfp": [_feature_class_code(mol, i) for i in n],
        }
        for family, row in (("ecfp", ecfp), ("fcfp", fcfp)):
            for radius in (0, 1, 2, 3):
                for length in (2048, 64):
                    for variant in ("binary", "count"):
                        c = cfg(family, radius=radius, length=length, variant=variant)
                        want = circular_oracle(mol, c, seeds[family])
                        assert row(mol, c).entries == want, (mol.source_text, c)

    def test_disconnected(self):
        for smi in self.DISCONNECTED:
            self._check(from_smiles(smi))

    def test_corpus(self):
        for smi in synthetic_smiles(300, 13):
            self._check(from_smiles(smi))

    def test_large_molecules(self):
        for g in large_set(13, FULL_LADDER):
            self._check(from_smiles(to_smiles(g)))


class TestFcfp:
    def test_benzene_radius0_single_code(self):
        v = fcfp(from_smiles("c1ccccc1"), cfg("fcfp", radius=0, variant="count"))
        assert len(v.entries) == 1 and total(v) == 6

    def test_donor_acceptor_classes_coincide(self):
        ethanol_o = fcfp(from_smiles("CO"), cfg("fcfp", radius=0))
        methylamine_n = fcfp(from_smiles("CN"), cfg("fcfp", radius=0))
        # O of methanol and N of methylamine share the donor+acceptor class;
        # the carbons share the all-zero class.
        assert ethanol_o.entries == methylamine_n.entries

    def test_charge_bit_differs(self):
        neutral = fcfp(from_smiles("OC"), cfg("fcfp", radius=0))
        charged = fcfp(from_smiles("[O-]C"), cfg("fcfp", radius=0))
        assert neutral.entries != charged.entries


class TestAtomPair:
    def test_ethanol_three_pairs(self):
        v = atom_pair(from_smiles("CCO"), cfg("atom_pair", variant="count"))
        assert total(v) == 3

    def test_benzene_distance_counts(self):
        v = atom_pair(from_smiles("c1ccccc1"), cfg("atom_pair", variant="count"))
        assert sorted(v.entries.values()) == [3, 6, 6]

    def test_cross_component_excluded(self):
        v = atom_pair(from_smiles("C.C"), cfg("atom_pair", variant="count"))
        assert v.entries == {}

    def test_distance_cap(self):
        decane = from_smiles("C" * 10)
        capped = atom_pair(decane, cfg("atom_pair", variant="count", distance_cap=3))
        assert total(capped) == atom_pair_feature_count(decane, 3)

    def test_count_matches_oracle(self, mols200):
        for mol in mols200[:40]:
            v = atom_pair(mol, cfg("atom_pair", variant="count"))
            assert total(v) == atom_pair_feature_count(mol, 30)


class TestTorsion:
    def test_butane_single_torsion(self):
        v = topological_torsion(from_smiles("CCCC"), cfg("topological_torsion", variant="count"))
        assert total(v) == 1

    def test_too_small_molecule(self):
        v = topological_torsion(from_smiles("CCO"), cfg("topological_torsion"))
        assert v.entries == {}

    def test_benzene_six_identical_torsions(self):
        v = topological_torsion(from_smiles("c1ccccc1"), cfg("topological_torsion", variant="count"))
        assert list(v.entries.values()) == [6]

    def test_count_matches_oracle(self, mols200):
        for mol in mols200[:40]:
            v = topological_torsion(mol, cfg("topological_torsion", variant="count"))
            assert total(v) == torsion_feature_count(mol), mol.source_text


class TestPath:
    def test_single_bond(self):
        v = path_fingerprint(from_smiles("CC"), cfg("path", max_path=1))
        assert len(v.entries) == 1

    def test_propane_multiset(self):
        v = path_fingerprint(from_smiles("CCC"), cfg("path", max_path=2, variant="count"))
        assert sorted(v.entries.values()) == [1, 2]

    def test_benzene_single_bond_paths(self):
        v = path_fingerprint(
            from_smiles("c1ccccc1"), cfg("path", min_path=1, max_path=1, variant="count")
        )
        assert list(v.entries.values()) == [6]

    def test_count_matches_oracle(self, mols200):
        for mol in mols200[:30]:
            v = path_fingerprint(mol, cfg("path", variant="count"))
            assert total(v) == path_feature_count(mol, 1, 7), mol.source_text


class TestSubstructure:
    def test_hydroxyl_key_fires(self):
        v = substructure_fingerprint(from_smiles("CCO"), KEYS)
        hydroxyl = next(i for i, k in enumerate(KEYS) if k.smarts == "[OX2H]")
        assert v.entries.get(hydroxyl) == 1
        assert v.length == len(KEYS)

    def test_benzene_ring_key(self):
        benzene_key = next(i for i, k in enumerate(KEYS) if k.smarts == "c1ccccc1")
        v = substructure_fingerprint(from_smiles("c1ccccc1"), KEYS)
        assert v.entries.get(benzene_key) == 1

    def test_count_variant_counts_unique_sets(self):
        v = substructure_fingerprint(from_smiles("OCCO"), KEYS, variant="count")
        hydroxyl = next(i for i, k in enumerate(KEYS) if k.smarts == "[OX2H]")
        assert v.entries[hydroxyl] == 2

    def test_empty_key_set_rejected_before_compute(self):
        with pytest.raises(ConfigError):
            substructure_fingerprint(from_smiles("C"), ())


class TestDescriptors:
    def test_ethanol(self):
        d = descriptors(from_smiles("CCO"))
        assert d[1] == 3  # heavy atoms
        assert d[4] == 1 and d[5] == 1  # HBD, HBA
        assert d[2] == 0  # rings
        assert abs(d[0] - 46.069) < 0.01

    def test_benzene(self):
        d = descriptors(from_smiles("c1ccccc1"))
        assert d[8] == 0.0  # fraction sp3
        assert d[3] == 1  # aromatic rings

    def test_rotatable_bonds(self):
        assert descriptors(from_smiles("CCCC"))[6] == 1
        assert descriptors(from_smiles("CC"))[6] == 0
        assert descriptors(from_smiles("C1CCCCC1C2CCCCC2"))[6] == 1

    def test_net_charge_and_halogens(self):
        d = descriptors(from_smiles("[O-]C(=O)CCl"))
        assert d[7] == -1
        assert d[9] == 1

    def test_length_ten(self, mols200):
        for mol in mols200[:10]:
            assert len(descriptors(mol)) == 10


class TestFold:
    def test_binary_or(self):
        v = FingerprintVector(8, "binary", {0: 1, 5: 1})
        assert fold(v, 4).entries == {0: 1, 1: 1}

    def test_identity(self):
        v = FingerprintVector(8, "count", {1: 2, 7: 3})
        assert fold(v, 8).entries == v.entries

    def test_count_sums(self):
        v = FingerprintVector(4, "count", {0: 2, 2: 1})
        assert fold(v, 2).entries == {0: 3}
        v = FingerprintVector(4, "real", {0: 0.5, 2: -0.5, 1: 2.0})
        assert fold(v, 2).entries == {1: 2.0}

    def test_nondivisor_rejected(self):
        with pytest.raises(FoldError):
            fold(FingerprintVector(8, "binary", {}), 3)

    def test_double_fold_collapses(self, mols200):
        for mol in mols200[:20]:
            v = ecfp(mol, cfg("ecfp", length=64, variant="count"))
            assert fold(fold(v, 32), 16).entries == fold(v, 16).entries


class TestInvariants:
    FAMILY_FNS = {
        "ecfp": lambda m, variant: ecfp(m, cfg("ecfp", variant=variant)),
        "fcfp": lambda m, variant: fcfp(m, cfg("fcfp", variant=variant)),
        "atom_pair": lambda m, variant: atom_pair(m, cfg("atom_pair", variant=variant)),
        "topological_torsion": lambda m, variant: topological_torsion(
            m, cfg("topological_torsion", variant=variant)
        ),
        "path": lambda m, variant: path_fingerprint(m, cfg("path", variant=variant)),
        "substructure": lambda m, variant: substructure_fingerprint(m, KEYS, variant),
    }

    def test_permutation_invariance(self, corpus200):
        rng = random.Random(3)
        for smi in corpus200[:25]:
            draft = parse_smiles(smi)
            base = {
                name: fn(sanitize(draft), "count")
                for name, fn in self.FAMILY_FNS.items()
            }
            for _ in range(3):
                perm = random_permutation(len(draft.atoms), rng)
                shuffled = sanitize(permute_draft(draft, perm))
                for name, fn in self.FAMILY_FNS.items():
                    assert fn(shuffled, "count").entries == base[name].entries, (
                        name,
                        smi,
                    )

    def test_binary_equals_count_support(self, mols200):
        for mol in mols200[:30]:
            for name, fn in self.FAMILY_FNS.items():
                c = fn(mol, "count")
                b = fn(mol, "binary")
                assert b.entries == {i: 1 for i in c.entries}, name

    def test_no_out_of_range_or_zero_entries(self, mols200):
        for mol in mols200[:30]:
            for name, fn in self.FAMILY_FNS.items():
                v = fn(mol, "count")
                assert all(0 <= i < v.length for i in v.entries)
                assert all(cnt >= 1 for cnt in v.entries.values())

    def test_total_count_independent_of_length(self, mols200):
        for mol in mols200[:20]:
            t1 = total(ecfp(mol, cfg("ecfp", length=128, variant="count")))
            t2 = total(ecfp(mol, cfg("ecfp", length=4096, variant="count")))
            assert t1 == t2


class TestVectorAndConfig:
    def test_vector_validation(self):
        with pytest.raises(ShapeError):
            FingerprintVector(4, "binary", {4: 1})
        with pytest.raises(ShapeError):
            FingerprintVector(4, "binary", {0: 2})
        with pytest.raises(ShapeError):
            FingerprintVector(4, "count", {0: 0})
        with pytest.raises(ShapeError):
            FingerprintVector(4, "nope", {})
        with pytest.raises(ShapeError):
            FingerprintVector(4, "real", {0: 0.0})
        assert FingerprintVector(4, "real", {1: -0.5}).entries == {1: -0.5}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cfg("nope").validate()
        with pytest.raises(ConfigError):
            cfg("ecfp", length=0).validate()
        with pytest.raises(ConfigError):
            cfg("ecfp", radius=-1).validate()
        with pytest.raises(ConfigError):
            cfg("path", min_path=3, max_path=2).validate()
        with pytest.raises(ConfigError):
            cfg("atom_pair", distance_cap=0).validate()
        with pytest.raises(ConfigError):
            cfg("ecfp", variant="ternary").validate()
        cfg("ecfp").validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("length", 64.5),
            ("length", True),
            ("radius", 1.5),
            ("min_path", True),
            ("max_path", 3.5),
            ("distance_cap", 2.5),
        ],
    )
    def test_integer_settings_reject_floats_and_bools(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            cfg("ecfp", **{field: value}).validate()
        with pytest.raises(ConfigError, match=f"^{field} "):
            Fingerprinter(cfg("ecfp", **{field: value}))

    def test_compute_dispatch(self, mols200):
        mol = mols200[0]
        assert isinstance(compute(mol, cfg("ecfp")), FingerprintVector)
        assert isinstance(compute(mol, cfg("descriptors")), tuple)
        v = compute(mol, cfg("substructure"), KEYS)
        assert v.length == len(KEYS)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.dictionaries(st.integers(0, 63), st.integers(1, 9), max_size=12),
    split=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
)
def test_fold_preserves_total_count(entries, split):
    v = FingerprintVector(64, "count", entries)
    folded = fold(v, split)
    assert sum(folded.entries.values()) == sum(v.entries.values())
    assert folded.length == split
