import numpy as np
import pytest

from helpers import random_permutation, structural_wl_labels
from rxnpred.chemgraph import parse_smiles
from rxnpred.datagen import random_molecule
from rxnpred.selfcheck import permute_graph
from rxnpred.wliso import (brute_force_isomorphic, wl_equivalent,
                           wl_fingerprint, wl_labels)


def partition(labels):
    """Group atom indices by label (the hash values themselves are arbitrary)."""
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(map(tuple, groups.values()))


class TestLabels:
    def test_ethane_symmetric(self):
        g = parse_smiles("CC")
        for depth in range(4):
            labels = wl_labels(g, depth)
            assert labels[0] == labels[1]

    def test_ethanol_middle_differs_at_depth_one(self):
        g = parse_smiles("CCO")
        l0 = wl_labels(g, 0)
        assert l0[0] == l0[1] != l0[2]
        l1 = wl_labels(g, 1)
        assert len(set(l1)) == 3

    def test_isobutane_vs_butane_depth_two(self):
        a = parse_smiles("CC(C)C")
        b = parse_smiles("CCCC")
        assert sorted(wl_labels(a, 2)) != sorted(wl_labels(b, 2))

    def test_matches_structural_oracle_partitions(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_molecule(rng)
            for depth in range(4):
                assert partition(wl_labels(g, depth)) == partition(
                    structural_wl_labels(g, depth))

    def test_monotone_refinement(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_molecule(rng)
            prev = partition(wl_labels(g, 0))
            for depth in (1, 2, 3):
                cur = partition(wl_labels(g, depth))
                lookup = {}
                for group in cur:
                    for atom in group:
                        lookup[atom] = group
                for group in prev:
                    # every earlier group splits into whole later groups
                    for atom in group:
                        assert set(lookup[atom]) <= set(group)
                prev = cur

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            wl_labels(parse_smiles("C"), -1)


class TestFingerprint:
    def test_single_atom(self):
        fp = wl_fingerprint(parse_smiles("C"), 3)
        assert len(fp.node_labels) == 1 and fp.edge_triples == ()

    def test_notation_invariance(self):
        assert wl_fingerprint(parse_smiles("CCO"), 3) == wl_fingerprint(
            parse_smiles("OCC"), 3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        g = random_molecule(rng, n_atoms=10, allow_curated=False)
        prints = {wl_fingerprint(permute_graph(g, random_permutation(rng, 10)), 3)
                  for _ in range(100)}
        assert len(prints) == 1

    def test_sizes_match_graph(self):
        g = parse_smiles("CC(=O)N.c1ccccc1")
        fp = wl_fingerprint(g, 2)
        assert len(fp.node_labels) == g.n_atoms
        assert len(fp.edge_triples) == g.n_bonds

    def test_stable_reference_value(self):
        # Recompute one label chain with an inline FNV-1a, then pin the tuple
        # so the published hash never changes silently.
        def fnv(data: bytes) -> int:
            h = 0xCBF29CE484222325
            for b in data:
                h = ((h ^ b) * 0x100000001B3) & ((1 << 64) - 1)
            return h

        base_c = fnv(b"C|0|0")
        base_o = fnv(b"O|0|0")
        # middle carbon of CCO: neighbors (single, C) and (single, O), sorted
        nbrs = sorted([(1, base_c), (1, base_o)])
        payload = base_c.to_bytes(8, "big") + b"".join(
            bytes([t]) + lab.to_bytes(8, "big") for t, lab in nbrs)
        expected_middle = fnv(payload)

        fp = wl_fingerprint(parse_smiles("CCO"), 1)
        assert expected_middle in fp.node_labels
        assert fp.node_labels == (4611822779754678548,
                                  8443772727648216795,
                                  9406001678384527360)


class TestEquivalence:
    def test_benzene_vs_cyclohexane(self):
        assert not wl_equivalent(parse_smiles("c1ccccc1"),
                                 parse_smiles("C1CCCCC1"), 3)

    def test_self_and_charge_sensitivity(self):
        g = parse_smiles("CC[NH3+]")
        assert wl_equivalent(g, g, 3)
        assert not wl_equivalent(g, parse_smiles("CCN"), 0)


class TestBruteForce:
    def test_self_isomorphic(self):
        g = parse_smiles("CC(=O)N")
        assert brute_force_isomorphic(g, g)

    def test_element_multiset_mismatch(self):
        assert not brute_force_isomorphic(parse_smiles("CCO"), parse_smiles("CCN"))

    def test_bond_type_mismatch(self):
        assert not brute_force_isomorphic(parse_smiles("CCO"), parse_smiles("CC=O"))

    def test_size_limit(self):
        big = parse_smiles("C" * 11)
        with pytest.raises(ValueError):
            brute_force_isomorphic(big, big)

    def test_agreement_with_wl(self):
        rng = np.random.default_rng(31)
        mols = [random_molecule(rng, n_atoms=int(rng.integers(2, 8)))
                for _ in range(30)]
        mols = [m for m in mols if m.n_atoms <= 7]
        for i in range(len(mols)):
            for j in range(i + 1, len(mols)):
                iso = brute_force_isomorphic(mols[i], mols[j])
                wl = wl_equivalent(mols[i], mols[j], 3)
                if iso:
                    assert wl  # soundness: isomorphic graphs always agree
                if not wl:
                    assert not iso  # WL difference proves non-isomorphism

    def test_permuted_copies_detected(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_molecule(rng, n_atoms=int(rng.integers(2, 9)))
            if g.n_atoms > 10:
                continue
            pg = permute_graph(g, random_permutation(rng, g.n_atoms))
            assert brute_force_isomorphic(g, pg)
