import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bfs_connected
from rxnpred.candgen import MAX_CANDIDATES, BondEdit, EditSet, connectivity_ok, enumerate_candidates
from rxnpred.chemgraph import BondType, apply_edits, parse_smiles
from rxnpred.selfcheck import brute_force_enumerate, brute_force_ordered, enumeration_instance


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
        # Two aromatic atoms with one single bond each: aromatic is allowed,
        # and even a triple bond leaves each at order 3 <= 4, so no filter
        # removes anything.
        g = parse_smiles("c-c")
        result = enumerate_candidates(g, [(0, 1)], 1)
        assert len(result) == 4  # alphabet of 5 minus the current type

    def test_two_single_pairs_max_changes_two(self):
        # Both pairs share the sulfur, so the pair of them is connected. Each
        # single bond takes none/double/triple (no aromatic: no aromatic
        # atoms). Two triples bring S to order 6 <= 6 and a carbon to 3 <= 4,
        # so valence removes nothing: 3 + 3 singles and 3 * 3 pairs.
        g = parse_smiles("CSC")
        result = enumerate_candidates(g, [(0, 1), (1, 2)], 2)
        assert len(result) == 3 + 3 + 9

    def test_upper_bound_formula(self):
        # The chain bonds C0-C1 .. C3-C4 each take none/double/triple (no
        # aromatic atoms), so without the valence and connectivity filters
        # there would be sum(comb(4, s) * 3**s) = 174. The filters leave:
        # - 4 singles * 3 options = 12; one new bond order of at most 3 plus
        #   the neighbouring single bond stays within carbon's 4.
        # - Pairs: only the 3 adjacent ones are connected. Their shared carbon
        #   needs a + b <= 4 over {0, 2, 3}, which leaves 6 of the 9.
        # - Triples: only the 2 runs of three adjacent bonds are connected.
        #   With middle bond m and outer bonds a, b, both inner carbons need
        #   a + m <= 4 and m + b <= 4: m = 0 leaves 9, m = 2 leaves 2 * 2,
        #   m = 3 leaves 1, so 14.
        g = parse_smiles("CCCCCC")
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        result = enumerate_candidates(g, pairs, 3)
        assert len(result) == 4 * 3 + 3 * 6 + 2 * 14
        assert len({c.edits for c in result}) == len(result)
        from math import comb
        assert len(result) <= sum(comb(4, s) * 3 ** s for s in (1, 2, 3))


class TestFilters:
    def test_valence_rejects_fifth_bond_on_carbon(self):
        g = parse_smiles("CC(C)(C)C.O")  # central carbon already has 4 bonds
        over = apply_edits(g, [(1, 5, BondType.SINGLE)])
        assert over.valence_warnings
        # a new bond from the saturated carbon to the water oxygen is filtered
        result = enumerate_candidates(g, [(1, 5)], 1)
        assert all(e.bond_type is BondType.NONE or e.u != 1
                   for c in result for e in c.edits)

    def test_parsed_reactants_pass(self):
        assert not parse_smiles("CC(=O)N.c1ccccc1").valence_warnings

    def test_hand_constructed_violations(self):
        g = parse_smiles("O=C=O")
        assert not g.valence_warnings
        bad = apply_edits(g, [(0, 1, BondType.TRIPLE)])  # carbon reaches 5
        assert bad.valence_warnings
        n = parse_smiles("N(C)(C)C")
        bad_n = apply_edits(n, [(0, 2, BondType.DOUBLE)])
        assert bad_n.valence_warnings
        s6 = parse_smiles("OS(O)(=O)=O")  # sulfur at 6: allowed
        assert not s6.valence_warnings
        f = parse_smiles("FC")
        assert apply_edits(f, [(0, 1, BondType.DOUBLE)]).valence_warnings
        charged = parse_smiles("[NH4+].C")
        assert not apply_edits(charged, [(0, 1, BondType.SINGLE)]).valence_warnings

    def test_aromatic_creation_needs_aromatic_atoms(self):
        # Only the aromatic rule stops (0,1) -> aromatic: ring atom 1 would
        # reach half-orders 3 + 3 + 3 = 9, order 4, within carbon's valence.
        g = parse_smiles("Cc1ccccc1")
        made = enumerate_candidates(g, [(0, 1), (1, 2)], 1)
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
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_brute_force_on_constructed_instances(self, seed):
        # The ordered list and the truncation flag. Up to 8 pairs, repeated
        # and reversed pairs, charged, aromatic and over-valent atoms, and
        # caps small enough to truncate.
        g, pairs, limits = enumeration_instance(np.random.default_rng(seed))
        result = enumerate_candidates(g, pairs, *limits)
        assert ([c.edits for c in result], result.truncated) == brute_force_ordered(
            g, pairs, *limits)

    def test_every_candidate_passes_filters_when_reapplied(self):
        g = parse_smiles("CC(=O)CC.OCC")
        pairs = [(1, 2), (1, 5), (2, 5), (0, 1)]
        for cand in enumerate_candidates(g, pairs, 3):
            assert not cand.product.valence_warnings
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
            if len(rec.true_edits) > 3:
                continue
            extra = [(u, u + 1) for u in range(min(3, rec.reactants.n_atoms - 1))]
            pairs = list(rec.true_edits.pairs) + extra
            result = enumerate_candidates(rec.reactants, pairs[:6], 3, max_candidates=10 ** 5)
            survives = rec.true_edits in brute_force_enumerate(
                rec.reactants, list(rec.true_edits.pairs), 3)
            if survives:
                assert rec.true_edits in {c.edits for c in result}
                checked += 1


class TestDeterminismAndCap:
    def test_same_inputs_same_ordered_output(self):
        g = parse_smiles("CC(=O)CC.OCC")
        pairs = [(1, 2), (1, 5), (2, 5)]
        a = [list(c.edits) for c in enumerate_candidates(g, pairs, 3)]
        b = [list(c.edits) for c in enumerate_candidates(g, pairs, 3)]
        assert a == b

    def test_order_is_by_size_then_position(self):
        # The counts of test_two_single_pairs_max_changes_two: 3 singles per
        # pair, in input order, then the 9 pairs of changes.
        g = parse_smiles("CSC")
        result = enumerate_candidates(g, [(0, 1), (1, 2)], 2)
        sizes = [len(c.edits) for c in result]
        assert sizes == sorted(sizes)
        assert [c.edits.pairs for c in result] == (
            [((0, 1),)] * 3 + [((1, 2),)] * 3 + [((0, 1), (1, 2))] * 9)

    def test_cap_truncates_with_flag(self):
        # The single changes alone give 6 pairs * 3 (none/double/triple; a
        # triple leaves each carbon at order <= 4) = 18 > 10 candidates.
        g = parse_smiles("C" * 10)
        pairs = [(i, i + 1) for i in range(6)]
        result = enumerate_candidates(g, pairs, 3, max_candidates=10)
        assert result.truncated and len(result) == 10

    def test_duplicate_input_pairs_deduplicated(self):
        # As in test_single_bonded_pair_four_raw_candidates, the one distinct
        # pair takes all 4 other bond types; the repeat adds nothing.
        g = parse_smiles("c-c")
        result = enumerate_candidates(g, [(0, 1), (1, 0)], 2)
        assert len(result) == 4

    def test_identity_assignment_excluded(self):
        g = parse_smiles("c-c")  # no filter applies, see the counting tests
        for cand in enumerate_candidates(g, [(0, 1)], 1):
            assert len(cand.edits) >= 1
            assert all(e.bond_type is not g.bond_type_between(e.u, e.v)
                       for e in cand.edits)

    @pytest.mark.parametrize("pair", [(0, 99), (0, -1), (3, 1)])
    def test_pair_outside_the_graph_rejected(self, pair):
        # An index past the end or a negative one names no atom of the graph.
        message = f"pair ({pair[0]},{pair[1]}) references an atom outside the 3-atom reactants"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_candidates(parse_smiles("CCO"), [(0, 1), pair], 2)

    @pytest.mark.parametrize("limits", [(0, 10), (2, 0)])
    def test_limits_below_one_rejected(self, limits):
        with pytest.raises(ValueError, match="must be >= 1"):
            enumerate_candidates(parse_smiles("CCO"), [(0, 1)], *limits)

    def test_lazy_product_consistency(self):
        g = parse_smiles("CCO")
        cand = enumerate_candidates(g, [(0, 1)], 1).candidates[0]
        direct = apply_edits(g, cand.edits)
        assert [b.bond_type for b in cand.product.bonds] == [
            b.bond_type for b in direct.bonds]


class TestCounters:
    def test_filter_counts(self):
        # Pairs (0,1) and (2,3) of "CC.CC" share no atom. Subsets: two
        # singles and one disconnected pair. A triple (half-order change +4)
        # puts no carbon over 4, so nothing is pruned.
        g = parse_smiles("CC.CC")
        result = enumerate_candidates(g, [(0, 1), (2, 3)], 2)
        assert (result.subsets, result.disconnected, result.preexisting,
                result.pruned, result.duplicates) == (3, 1, 0, 0, 0)
        assert len(result) == 6 and not result.truncated

    def test_preexisting_violation_and_sound_pruning(self):
        # Carbon 1 of "FC(F)(F)(F)C.O" starts at order 5, over its 4. The one
        # subset that leaves it out, {(5,6)}, cannot repair it. In the others
        # a later deletion can make room for an earlier pair's double bond,
        # so that branch must survive the cut.
        g = parse_smiles("FC(F)(F)(F)C.O")
        pairs = [(5, 6), (1, 5), (0, 1), (1, 2)]
        result = enumerate_candidates(g, pairs, 3)
        assert EditSet.of([(0, 1, BondType.NONE), (1, 2, BondType.NONE),
                           (1, 5, BondType.DOUBLE)]) in {c.edits for c in result}
        assert result.subsets == 4 + 6 + 4 and result.preexisting == 1
        assert result.pruned > 0 and result.duplicates == 0
        assert ([c.edits for c in result], result.truncated) == brute_force_ordered(
            g, pairs, 3, MAX_CANDIDATES)

    def test_duplicates_counted(self):
        g = parse_smiles("c-c")
        result = enumerate_candidates(g, [(0, 1), (1, 0)], 2)
        assert result.duplicates == 4 and len(result) == 4
