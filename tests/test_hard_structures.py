"""Stress cases: symmetric cages, digit reuse, deep nesting, fuzzing."""

from __future__ import annotations

import random
import struct
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfp import (
    BatchOptions,
    FingerprintConfig,
    Fingerprinter,
    ShapeError,
    canonical_ranks,
    from_smiles,
    sanitize,
    transform_batch,
    write_canonical_smiles,
)
from molfp.chem import PERMITTED_VALENCES, symbol_of
from molfp.cli import main
from molfp.corpus import synthetic_smiles
from molfp.fingerprints import FAMILY_ROWS, atom_pair, ecfp, path_fingerprint
from molfp.hashing import TAG_PATH, hash_seed, stable_hash32
from molfp.smarts import has_match, parse_smarts
from molfp.smiles import parse_smiles

from .oracles import (
    are_isomorphic,
    atom_pair_feature_count,
    atom_pair_tally_oracle,
    canonical_ranks_oracle,
    ecfp_feature_count,
    path_feature_count,
    path_fingerprint_oracle,
    permute_draft,
    random_permutation,
    torsion_feature_count,
)
from .test_cli import spoked_wheel_smiles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from molecules import FULL_LADDER, large_set, to_smiles  # noqa: E402

CAGES = [
    "C1CC2CCC1CC2",            # bicyclo[2.2.2]octane
    "C1C2CC3CC1CC(C2)C3",      # adamantane
    "C12C3C4C1C5C4C3C25",      # cubane
    "C1CCC2(CC1)CCCC2",        # spiro[4.5]decane
    "c1ccc2c(c1)ccc1ccccc21",  # phenanthrene
    "C1CC12CC2",               # spiropentane
    "c1ccc2-c3ccccc3-c2c1",    # biphenylene: single-bond ring closures
]


class TestSymmetricCages:
    def test_sanitize_and_rings(self):
        for smi in CAGES:
            mol = from_smiles(smi)
            assert mol.rings.rings  # every cage is cyclic

    def test_canonical_permutation_invariance(self):
        rng = random.Random(31)
        for smi in CAGES:
            draft = parse_smiles(smi)
            reference = write_canonical_smiles(sanitize(draft))
            for _ in range(20):
                perm = random_permutation(len(draft.atoms), rng)
                shuffled = sanitize(permute_draft(draft, perm))
                assert write_canonical_smiles(shuffled) == reference, smi

    def test_roundtrip_isomorphic(self):
        for smi in CAGES:
            mol = from_smiles(smi)
            back = from_smiles(write_canonical_smiles(mol))
            assert are_isomorphic(mol, back), smi


NEOPENTYL_DENDRIMER = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"  # two generations

# One molecule written in three atom orders: every CH2 is tied after
# refinement, and which ring the tie-break picks first shows in the output.
RING_ORDERS = ("C1CCCCC1.C1CC1.C1CC1", "C1CC1.C1CC1.C1CCCCC1", "C1CC1.C1CCCCC1.C1CC1")


class TestRanksMatchOracle:
    # Cell-splitting refinement against full rounds with dense ranks.

    @staticmethod
    def check(texts, rng, shuffles):
        for smi in texts:
            draft = parse_smiles(smi)
            mol = sanitize(draft)
            assert canonical_ranks(mol) == canonical_ranks_oracle(mol), smi
            for _ in range(shuffles):
                perm = random_permutation(len(draft.atoms), rng)
                shuffled = sanitize(permute_draft(draft, perm))
                assert canonical_ranks(shuffled) == canonical_ranks_oracle(shuffled), smi

    def test_corpus(self):
        self.check(synthetic_smiles(2000, seed=13), random.Random(13), 1)

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_large_molecules(self, seed):
        texts = [to_smiles(g) for g in large_set(seed, FULL_LADDER)]
        self.check(texts, random.Random(seed), 1)

    def test_symmetric_and_multi_component(self):
        texts = [
            *CAGES,
            spoked_wheel_smiles(99),
            NEOPENTYL_DENDRIMER,
            *RING_ORDERS,
            ".".join(["C1CC1"] * 20),
            ".".join(["CCO"] * 30),
            "c1ccccc1.c1ccccc1.C",
            "[Na+].[Cl-].[Na+].[Cl-]",
            "O=C([O])C",  # two oxygens told apart by bond order alone
        ]
        self.check(texts, random.Random(7), 5)


class TestCanonicalTimeBounds:
    # Refinement re-signs only atoms next to a split, so a long chain or
    # hundreds of identical components rank in well under a second; the
    # oracle's full rounds take seconds on each of these inputs.

    CHAIN = "C" * 2000

    def test_long_chain(self):
        mol = from_smiles(self.CHAIN)
        start = time.perf_counter()
        canon = write_canonical_smiles(mol)
        elapsed = time.perf_counter() - start
        assert canon == self.CHAIN
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("unit, copies", [("C1CC1", 200), ("CCO", 300)])
    def test_many_components(self, unit, copies):
        mol = from_smiles(".".join([unit] * copies))
        start = time.perf_counter()
        canon = write_canonical_smiles(mol)
        elapsed = time.perf_counter() - start
        assert len(canon.split(".")) == copies
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_cli_skip(self, tmp_path):
        src = tmp_path / "in.smi"
        src.write_text(f"{self.CHAIN} chain\nC1CC bad\n")
        out = tmp_path / "out.smi"
        start = time.perf_counter()
        assert main(["canonical", str(src), str(out), "--on-error", "skip"]) == 0
        elapsed = time.perf_counter() - start
        assert out.read_text().splitlines() == [f"{self.CHAIN} chain"]
        errors = (tmp_path / "out.smi.errors.tsv").read_text().splitlines()
        assert [line.split("\t")[:2] for line in errors[1:]] == [["1", "2"]]
        assert elapsed < 4.0, f"{elapsed:.2f} s"


@pytest.mark.xfail(
    strict=True,
    reason="refinement leaves the CH2 of both ring sizes tied, and the tie-break's pick shows",
)
def test_canonical_independent_of_atom_order():
    outputs = {write_canonical_smiles(from_smiles(smi)) for smi in RING_ORDERS}
    assert len(outputs) == 1, outputs


class TestParserStress:
    def test_ring_digit_reuse(self):
        # digit 1 closes, then reopens for a second ring
        mol = from_smiles("C1CC1C1CC1")
        assert sorted(len(r) for r in mol.rings.rings) == [3, 3]

    def test_deep_branch_nesting(self):
        text = "C" + "(C" * 30 + ")" * 30
        mol = from_smiles(text)
        assert mol.n_atoms == 31

    def test_long_chain(self):
        mol = from_smiles("C" * 500)
        assert mol.n_atoms == 500
        canon = write_canonical_smiles(mol)
        assert from_smiles(canon).n_atoms == 500

    def test_many_ring_closures_percent_digits(self):
        # chain of 12 cyclopropane rings forces ring numbers past 9
        smi = "C1CC1" + "C1CC1" * 11
        mol = from_smiles(smi)
        assert len(mol.rings.rings) == 12
        canon = write_canonical_smiles(mol)
        assert "%1" in canon  # at least one two-digit closure emitted
        assert write_canonical_smiles(from_smiles(canon)) == canon
        assert from_smiles(canon).n_atoms == mol.n_atoms

    def test_bracket_in_ring(self):
        mol = from_smiles("[13C]1CC[NH2+]CC1")
        back = from_smiles(write_canonical_smiles(mol))
        assert are_isomorphic(mol, back)


class TestLargeRing:
    # Deeper than the default recursion limit: ring perception must not
    # recurse once per ring atom.
    MACROCYCLE = "C1" + "C" * 1200 + "1"

    def test_macrocycle_sanitizes(self):
        mol = from_smiles(self.MACROCYCLE)
        assert [len(r) for r in mol.rings.rings] == [1201]

    def test_macrocycle_batch_skip(self):
        fp = Fingerprinter(FingerprintConfig(family="descriptors"))
        mat, _ = transform_batch(
            [self.MACROCYCLE, "CCO"], fp, BatchOptions(error_mode="skip")
        )
        assert mat.rows == 2


def _ring_digit(n: int) -> str:
    return str(n) if n < 10 else f"%{n:02d}"


def polyacene(rings: int) -> str:
    """Linearly fused benzene rings (rings >= 2): 4 * rings + 2 atoms."""
    inner = range(3, rings + 1)
    return (
        "c1ccc2"
        + "".join(f"cc{_ring_digit(i)}" for i in inner)
        + f"ccccc{_ring_digit(rings)}"
        + "".join(f"cc{_ring_digit(i)}" for i in reversed(range(2, rings)))
        + "c1"
    )


LARGE = {
    "chain300": "C" * 300,
    "ring280": "C1" + "C" * 279 + "1",
    "polyacene30": polyacene(30),
}


def _count_total(mol, family: str, **kw) -> int:
    """Feature total of the count variant, after checking that the
    binary variant has the same support."""
    fp = FAMILY_ROWS[family]
    count = fp(mol, FingerprintConfig(family=family, variant="count", **kw), None)
    binary = fp(mol, FingerprintConfig(family=family, variant="binary", **kw), None)
    assert set(binary.entries) == set(count.entries)
    return sum(count.entries.values())


class TestLargeMoleculeOracles:
    # Feature totals of the graph layers on molecules of hundreds of
    # atoms against the brute-force counts of tests/oracles.py.

    def test_shapes(self):
        sizes = {name: from_smiles(smi) for name, smi in LARGE.items()}
        assert sizes["chain300"].n_atoms == 300
        assert [len(r) for r in sizes["ring280"].rings.rings] == [280]
        acene = sizes["polyacene30"]
        assert acene.n_atoms == 122
        assert sorted(len(r) for r in acene.rings.rings) == [6] * 30

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_circular_totals(self, name):
        mol = from_smiles(LARGE[name])
        for radius in range(4):
            expected = ecfp_feature_count(mol, radius)
            assert _count_total(mol, "ecfp", radius=radius) == expected, radius
            assert _count_total(mol, "fcfp", radius=radius) == expected, radius

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_atom_pair_totals(self, name):
        mol = from_smiles(LARGE[name])
        for cap in (1, 5, 30):
            expected = atom_pair_feature_count(mol, cap)
            assert _count_total(mol, "atom_pair", distance_cap=cap) == expected, cap

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_path_totals(self, name):
        mol = from_smiles(LARGE[name])
        for lo, hi in ((1, 7), (2, 4), (1, 10)):
            expected = path_feature_count(mol, lo, hi)
            assert _count_total(mol, "path", min_path=lo, max_path=hi) == expected, (lo, hi)

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_torsion_totals(self, name):
        mol = from_smiles(LARGE[name])
        expected = torsion_feature_count(mol)
        assert _count_total(mol, "topological_torsion") == expected


# Elements with no valence rule take any degree in brackets, so a chain
# of 60 of them has 60 atom types, and its tally at cap 30 is too large
# for the flat list and goes to the dict.
MANY_TYPES = "".join(
    [f"[{symbol_of(e)}]" for e in range(3, 90) if e not in PERMITTED_VALENCES][:60]
)


class TestAtomPairTally:
    """``atom_pair`` rows equal the all-pairs oracle, count and binary."""

    CAPS = (1, 2, 3, 30)
    SMALL = (
        "[H]C([H])([H])O",   # explicit hydrogens: in the walk, in no pair
        "[H][H]",            # no heavy atom
        "CC.O",              # no pair across components
        "[Na+].[Cl-]",
        "C" * 45,            # a chain longer than every cap
        "OCCN" * 12,
        MANY_TYPES,
    )

    def _check(self, mol):
        for cap in self.CAPS:
            expected = atom_pair_tally_oracle(mol, cap, 2048)
            for variant in ("count", "binary"):
                cfg = FingerprintConfig(family="atom_pair", variant=variant, distance_cap=cap)
                row = atom_pair(mol, cfg).entries
                want = expected if variant == "count" else dict.fromkeys(expected, 1)
                assert row == want, (mol.source_text, cap, variant)

    def test_small_and_edge_cases(self):
        for smi in self.SMALL:
            self._check(from_smiles(smi))

    def test_corpus_sample(self):
        for smi in random.Random(13).sample(synthetic_smiles(2000, seed=13), 150):
            self._check(from_smiles(smi))

    def test_large_molecules(self):
        for g in large_set(13, FULL_LADDER):
            self._check(from_smiles(to_smiles(g)))


class TestPathTally:
    """``path_fingerprint`` rows equal the walk-from-every-atom oracle,
    count and binary, and count rows sum to the number of paths."""

    BOUNDS = ((1, 1), (1, 3), (2, 4), (1, 7), (3, 10), (10, 10))
    SMALL = (
        "C",
        "[H][H]",
        "[Na+].[Cl-]",
        "CCOCC",                      # palindromic chain
        "c1ccccc1",                   # palindromic ring
        "C1CC2CC3CC4CCCCC4CC3CC2C1",  # fused rings
        "C" * 45,                     # a chain longer than every bound
    )

    def _check(self, mol):
        for lo, hi in self.BOUNDS:
            expected = path_fingerprint_oracle(mol, lo, hi, 2048)
            for variant in ("count", "binary"):
                cfg = FingerprintConfig(family="path", variant=variant, min_path=lo, max_path=hi)
                row = path_fingerprint(mol, cfg).entries
                want = expected if variant == "count" else dict.fromkeys(expected, 1)
                assert row == want, (mol.source_text, lo, hi, variant)
                if variant == "count":
                    assert sum(row.values()) == path_feature_count(mol, lo, hi)

    def test_small_and_edge_cases(self):
        for smi in self.SMALL:
            self._check(from_smiles(smi))

    def test_corpus_sample(self):
        for smi in random.Random(13).sample(synthetic_smiles(2000, seed=13), 150):
            self._check(from_smiles(smi))

    def test_large_molecules(self):
        for g in large_set(13, FULL_LADDER):
            self._check(from_smiles(to_smiles(g)))

    def test_packed_bytes_sort_like_code_tuples(self):
        # The walk orients each path by comparing packed bytes, not tuples.
        rng = random.Random(13)
        codes = (0, 1, 2, 4, 255, 256, 2**31, 2**32 - 2, 2**32 - 1)
        for n in (1, 3, 5, 21):
            pack = struct.Struct(f">{n}q").pack
            for _ in range(500):
                a = tuple(rng.choice(codes) for _ in range(n))
                b = tuple(rng.choice(codes) for _ in range(n))
                assert (pack(*a) < pack(*b)) == (a < b), (a, b)
                assert (pack(*a) == pack(*b)) == (a == b), (a, b)
                seq = a + b
                packed = struct.pack(f">{len(seq)}q", *seq)
                assert zlib.crc32(packed, hash_seed(TAG_PATH)) == stable_hash32(TAG_PATH, *seq)


def test_long_chain_graph_layers_near_linear():
    # Quadratic parse, environment or pair code takes tens of seconds
    # here; the linear layers take well under one.
    start = time.perf_counter()
    mol = from_smiles("C" * 3000)
    ecfp(mol, FingerprintConfig(family="ecfp"))
    pairs = atom_pair(mol, FingerprintConfig(family="atom_pair", variant="count"))
    elapsed = time.perf_counter() - start
    assert sum(pairs.entries.values()) == sum(3000 - d for d in range(1, 31))
    assert elapsed < 5.0, f"{elapsed:.2f} s"


def test_deep_pattern_matches_without_recursion():
    # A 2,000-atom query is deeper than the default recursion limit: the
    # matcher must not recurse once per query atom.  has_match only, as
    # count_unique enumerates every mapping of a chain onto a chain.
    pattern = parse_smarts("C" * 2000)
    mol = from_smiles("C" * 2000)
    start = time.perf_counter()
    assert has_match(pattern, mol)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_generated_molecules_roundtrip(seed):
    smi = synthetic_smiles(1, seed)[0]
    mol = from_smiles(smi)
    canon = write_canonical_smiles(mol)
    assert write_canonical_smiles(from_smiles(canon)) == canon


def test_bulk_top_k_rejects_dense():
    import numpy as np

    from molfp import DenseMatrix, FingerprintVector, bulk_top_k

    dense = DenseMatrix(np.zeros((2, 4)), "u8")
    with pytest.raises(ShapeError):
        bulk_top_k(FingerprintVector(4, "binary", {0: 1}), dense, 1)
