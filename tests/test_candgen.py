import numpy as np
import pytest

from helpers import bfs_connected
from rxnpred.candgen import (BondEdit, EditSet, GenConfig, connectivity_ok,
                             enumerate_candidates, valence_ok)
from rxnpred.chemgraph import BondType, apply_edits, parse_smiles
from rxnpred.datagen import random_molecule
from rxnpred.selfcheck import brute_force_enumerate

UNFILTERED = dict(enforce_valence=False, enforce_connectivity=False,
                  aromatic_needs_aromatic_atoms=False)


class TestEditSet:
    def test_normalization(self):
        es = EditSet.of([(3, 1, BondType.SINGLE), (0, 2, BondType.NONE)])
        assert es.edits == (BondEdit(0, 2, BondType.NONE), BondEdit(1, 3, BondType.SINGLE))
        assert es.pairs == ((0, 2), (1, 3))
        assert es.atoms() == {0, 1, 2, 3}

    def test_rejects_duplicates_and_self_pairs(self):
        with pytest.raises(ValueError):
            EditSet.of([(0, 1, BondType.NONE), (1, 0, BondType.SINGLE)])
        with pytest.raises(ValueError):
            EditSet.of([(2, 2, BondType.SINGLE)])

    def test_hashable_equality(self):
        a = EditSet.of([(0, 1, BondType.DOUBLE)])
        b = EditSet.of([(1, 0, BondType.DOUBLE)])
        assert a == b and hash(a) == hash(b)


class TestCounting:
    def test_single_bonded_pair_four_raw_candidates(self):
        g = parse_smiles("CC")
        cfg = GenConfig(max_changes=1, **UNFILTERED)
        result = enumerate_candidates(g, [(0, 1)], cfg)
        assert len(result) == 4  # alphabet of 5 minus the current type

    def test_two_single_pairs_max_changes_two(self):
        g = parse_smiles("CCCC")
        cfg = GenConfig(max_changes=2, **UNFILTERED)
        result = enumerate_candidates(g, [(0, 1), (2, 3)], cfg)
        assert len(result) == 4 + 4 + 16

    def test_upper_bound_formula(self):
        g = parse_smiles("CCCCCC")
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        cfg = GenConfig(max_changes=3, **UNFILTERED)
        result = enumerate_candidates(g, pairs, cfg)
        from math import comb
        bound = sum(comb(4, s) * 4 ** s for s in (1, 2, 3))
        assert len(result) <= bound


class TestFilters:
    def test_valence_rejects_fifth_bond_on_carbon(self):
        g = parse_smiles("CC(C)(C)C.O")  # central carbon already has 4 bonds
        over = apply_edits(g, [(1, 5, BondType.SINGLE)])
        assert not valence_ok(over)
        cfg = GenConfig(max_changes=1)
        # a new bond from the saturated carbon to the water oxygen is filtered
        result = enumerate_candidates(g, [(1, 5)], cfg)
        assert all(e.bond_type is BondType.NONE or e.u != 1
                   for c in result for e in c.edits)

    def test_parsed_reactants_pass(self):
        assert valence_ok(parse_smiles("CC(=O)N.c1ccccc1"))

    def test_hand_constructed_violations(self):
        g = parse_smiles("O=C=O")
        assert valence_ok(g)
        bad = apply_edits(g, [(0, 1, BondType.TRIPLE)])  # carbon reaches 5
        assert not valence_ok(bad)
        n = parse_smiles("N(C)(C)C")
        bad_n = apply_edits(n, [(0, 2, BondType.DOUBLE)])
        assert not valence_ok(bad_n)
        s6 = parse_smiles("OS(O)(=O)=O")  # sulfur at 6: allowed
        assert valence_ok(s6)
        f = parse_smiles("FC")
        assert not valence_ok(apply_edits(f, [(0, 1, BondType.DOUBLE)]))
        charged = parse_smiles("[NH4+].C")
        assert valence_ok(apply_edits(charged, [(0, 1, BondType.SINGLE)]))

    def test_aromatic_creation_needs_aromatic_atoms(self):
        g = parse_smiles("Cc1ccccc1")
        cfg = GenConfig(max_changes=1, enforce_valence=False)
        made = enumerate_candidates(g, [(0, 1), (1, 2)], cfg)
        for cand in made:
            for e in cand.edits:
                if e.bond_type is BondType.AROMATIC:
                    assert g.atoms[e.u].aromatic and g.atoms[e.v].aromatic

    def test_connectivity(self):
        assert connectivity_ok([(1, 2, BondType.NONE)])
        assert connectivity_ok([(1, 2, BondType.NONE), (2, 3, BondType.SINGLE)])
        assert not connectivity_ok([(1, 2, BondType.NONE), (5, 6, BondType.SINGLE)])
        with pytest.raises(ValueError):
            connectivity_ok([])

    def test_connectivity_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_edges = int(rng.integers(1, 6))
            edges = [(int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                     for _ in range(n_edges)]
            edges = [(u, v) for u, v in edges if u != v]
            if not edges:
                continue
            edits = [(u, v, BondType.NONE) for u, v in edges]
            assert connectivity_ok(edits) == bfs_connected(edges)


class TestEnumerationOracle:
    def test_matches_brute_force_on_constructed_instances(self):
        rng = np.random.default_rng(9)
        done = 0
        while done < 20:
            g = random_molecule(rng, n_atoms=int(rng.integers(3, 8)))
            n = g.n_atoms
            all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            if not all_pairs:
                continue
            k = int(rng.integers(1, min(4, len(all_pairs)) + 1))
            chosen = rng.choice(len(all_pairs), size=k, replace=False)
            pairs = [all_pairs[i] for i in chosen]
            cfg = GenConfig(max_changes=min(3, k), max_candidates=10 ** 6)
            fast = enumerate_candidates(g, pairs, cfg).edit_sets()
            slow = brute_force_enumerate(g, pairs, cfg)
            assert fast == slow
            done += 1

    def test_every_candidate_passes_filters_when_reapplied(self):
        g = parse_smiles("CC(=O)CC.OCC")
        pairs = [(1, 2), (1, 5), (2, 5), (0, 1)]
        cfg = GenConfig(max_changes=3)
        for cand in enumerate_candidates(g, pairs, cfg):
            assert valence_ok(cand.product)
            if len(cand.edits) > 1:
                assert connectivity_ok(cand.edits)

    def test_coverage_link(self):
        # whenever the true edits sit inside the proposed pairs and survive
        # the filters, the candidate list contains them
        rng = np.random.default_rng(21)
        from rxnpred.datagen import random_reaction_line
        from rxnpred.pipeline import parse_reaction_line
        checked = 0
        while checked < 25:
            try:
                rec = parse_reaction_line(random_reaction_line(rng))
            except ValueError:
                continue
            cfg = GenConfig(max_changes=3, max_candidates=10 ** 5)
            if len(rec.true_edits) > cfg.max_changes:
                continue
            extra = [(u, u + 1) for u in range(min(3, rec.reactants.n_atoms - 1))]
            pairs = list(rec.true_edits.pairs) + extra
            result = enumerate_candidates(rec.reactants, pairs[:6], cfg)
            survives = rec.true_edits in brute_force_enumerate(
                rec.reactants, list(rec.true_edits.pairs), cfg)
            if survives:
                assert rec.true_edits in result.edit_sets()
                checked += 1


class TestDeterminismAndCap:
    def test_same_inputs_same_ordered_output(self):
        g = parse_smiles("CC(=O)CC.OCC")
        pairs = [(1, 2), (1, 5), (2, 5)]
        cfg = GenConfig(max_changes=3)
        a = [list(c.edits) for c in enumerate_candidates(g, pairs, cfg)]
        b = [list(c.edits) for c in enumerate_candidates(g, pairs, cfg)]
        assert a == b

    def test_order_is_by_size_then_position(self):
        g = parse_smiles("CCCC")
        cfg = GenConfig(max_changes=2, **UNFILTERED)
        sizes = [len(c.edits) for c in enumerate_candidates(g, [(0, 1), (2, 3)], cfg)]
        assert sizes == sorted(sizes)

    def test_cap_truncates_with_flag(self):
        g = parse_smiles("C" * 10)
        pairs = [(i, i + 1) for i in range(6)]
        cfg = GenConfig(max_changes=3, max_candidates=10, **UNFILTERED)
        result = enumerate_candidates(g, pairs, cfg)
        assert result.truncated and len(result) == 10

    def test_duplicate_input_pairs_deduplicated(self):
        g = parse_smiles("CC")
        cfg = GenConfig(max_changes=2, **UNFILTERED)
        result = enumerate_candidates(g, [(0, 1), (1, 0)], cfg)
        assert len(result) == 4

    def test_identity_assignment_excluded(self):
        g = parse_smiles("CC")
        cfg = GenConfig(max_changes=1, **UNFILTERED)
        for cand in enumerate_candidates(g, [(0, 1)], cfg):
            assert len(cand.edits) >= 1
            assert all(e.bond_type is not g.bond_type_between(e.u, e.v)
                       for e in cand.edits)

    def test_lazy_product_consistency(self):
        g = parse_smiles("CCO")
        cfg = GenConfig(max_changes=1)
        cand = enumerate_candidates(g, [(0, 1)], cfg).candidates[0]
        direct = apply_edits(g, cand.edits)
        assert [b.bond_type for b in cand.product.bonds] == [
            b.bond_type for b in direct.bonds]
