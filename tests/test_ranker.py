import math

import numpy as np
import pytest

from helpers import graph_distance, random_permutation
from rxnpred import diffengine as de
from rxnpred.candgen import Candidate, EditSet, enumerate_candidates
from rxnpred.chemgraph import ATOM_FEATURE_DIM, BondType, parse_smiles
from rxnpred.ranker import RankerModel, rank_candidates, rank_reactions
from rxnpred.selfcheck import difference_vectors, permute_graph
from rxnpred.wln import FIXED_METADATA, WLNParams


def identity_candidate(g):
    return Candidate(EditSet.of([]), g)


class TestDifferenceVectors:
    def test_identity_candidate_gives_zero(self):
        model = RankerModel.create("wln", hidden=8, depth=2, seed=0)
        g = parse_smiles("CC(=O)CCN")
        d = difference_vectors(g, identity_candidate(g), model.wln)
        assert np.array_equal(d.values, np.zeros_like(d.values))

    def test_zero_outside_edit_radius(self):
        depth = 2
        model = RankerModel.create("wln", hidden=8, depth=depth, seed=1)
        g = parse_smiles("C" * 12)
        cand = Candidate(EditSet.of([(0, 1, BondType.NONE)]), g)
        d = difference_vectors(g, cand, model.wln).values
        dist = [min(a, b) for a, b in zip(graph_distance(g, 0), graph_distance(g, 1))]
        for v in range(12):
            if dist[v] > depth + 1:
                assert np.array_equal(d[v], np.zeros(8))

    def test_nonzero_exactly_on_affected_set(self):
        depth = 2
        model = RankerModel.create("wln", hidden=8, depth=depth, seed=2)
        g = parse_smiles("CCCCCCCCCC")
        cand = Candidate(EditSet.of([(4, 5, BondType.DOUBLE)]), g)
        d = difference_vectors(g, cand, model.wln).values
        dist = [min(a, b) for a, b in zip(graph_distance(g, 4), graph_distance(g, 5))]
        for v in range(10):
            if dist[v] > depth + 1:
                assert np.array_equal(d[v], np.zeros(8))
            else:
                assert np.any(d[v] != 0.0)


class TestScoring:
    def test_identity_scores_zero_both_variants(self):
        g = parse_smiles("CC(=O)c1ccccc1.OCC")
        for variant in ("wln", "wldn"):
            model = RankerModel.create(variant, hidden=8, depth=3, seed=3)
            score = model.score_reactions([(g, [identity_candidate(g)])]).item()
            assert score == 0.0

    def test_joint_permutation_invariance_exact(self):
        rng = np.random.default_rng(4)
        g = parse_smiles("CC(=O)CCN.OC")
        edits = EditSet.of([(1, 2, BondType.SINGLE), (1, 6, BondType.SINGLE)])
        for variant in ("wln", "wldn"):
            model = RankerModel.create(variant, hidden=8, depth=2, seed=5)
            base = model.score_reactions([(g, [Candidate(edits, g)])]).item()
            for _ in range(5):
                perm = random_permutation(rng, g.n_atoms)
                pg = permute_graph(g, perm)
                p_edits = EditSet.of([(perm[e.u], perm[e.v], e.bond_type)
                                      for e in edits])
                score = model.score_reactions([(pg, [Candidate(p_edits, pg)])]).item()
                assert score == base

    def test_wldn_and_sumpool_disagree_on_adjacent_changes(self):
        g = parse_smiles("CC=CCCC")
        cand = Candidate(EditSet.of([(1, 2, BondType.SINGLE),
                                     (2, 3, BondType.DOUBLE)]), g)
        wln_score = RankerModel.create("wln", hidden=8, depth=2, seed=6).score_reactions(
            [(g, [cand])]).item()
        wldn_score = RankerModel.create("wldn", hidden=8, depth=2, seed=6).score_reactions(
            [(g, [cand])]).item()
        assert wln_score != wldn_score

    def test_sumpool_twins_with_matching_differences_score_equal(self):
        # two identical far-apart components; editing the mirrored pair in
        # either copy produces the same multiset of difference vectors, so
        # the sum-pooled score must agree exactly
        model = RankerModel.create("wln", hidden=8, depth=2, seed=10)
        g = parse_smiles("CC=CCCC.CC=CCCC")
        edit_a = Candidate(EditSet.of([(1, 2, BondType.SINGLE)]), g)
        edit_b = Candidate(EditSet.of([(7, 8, BondType.SINGLE)]), g)
        score_a = model.score_reactions([(g, [edit_a])]).item()
        score_b = model.score_reactions([(g, [edit_b])]).item()
        assert score_a == score_b


class TestRankLoss:
    def test_single_candidate_zero_loss(self):
        assert de.softmax_logloss(de.constant([[2.5]]), [(0, 1)]).item() == 0.0

    def test_uniform_scores(self):
        for m in (1, 3, 7):
            scores = de.constant(np.full((m + 1, 1), 0.4))
            assert abs(de.softmax_logloss(scores, [(0, m + 1)]).item()
                       - math.log(m + 1)) < 1e-12

    def test_hand_computed_value(self):
        scores = de.constant([[1.0], [0.0], [0.0]])
        expected = math.log(1.0 + 2.0 * math.exp(-1.0))
        assert abs(de.softmax_logloss(scores, [(0, 3)]).item() - expected) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            de.softmax_logloss(de.constant(np.zeros((0, 1))), [(0, 0)])

    def test_loss_decreases_under_overfit_steps(self):
        model = RankerModel.create("wln", hidden=8, depth=2, seed=7)
        g = parse_smiles("CCO.N")
        cands = [Candidate(EditSet.of([(0, 1, BondType.DOUBLE)]), g),
                 Candidate(EditSet.of([(0, 1, BondType.NONE)]), g),
                 Candidate(EditSet.of([(1, 2, BondType.NONE)]), g)]
        adam = de.AdamState(model.store, lr=0.01, decay=1.0)
        losses = []
        for _ in range(30):
            model.store.zero_grads()
            loss = de.softmax_logloss(model.score_reactions([(g, cands)]), [(0, len(cands))])
            losses.append(loss.item())
            de.backward(loss)
            de.adam_step(model.store, adam)
        assert losses[-1] < losses[0]
        assert losses[-1] < 0.1


class TestRanking:
    def test_stable_order_on_equal_scores(self):
        class FlatModel:
            def score_reactions(self, reactions):
                return de.constant(np.ones((sum(len(cands) for _, cands in reactions), 1)))

        g = parse_smiles("CCO")
        cands = [Candidate(EditSet.of([(0, 1, BondType.NONE)]), g),
                 Candidate(EditSet.of([(1, 2, BondType.NONE)]), g)]
        ranked = rank_candidates(g, cands, FlatModel())
        assert [list(c.edits) for c in ranked] == [list(c.edits) for c in cands]

    def test_agrees_with_sort_oracle_and_attaches_scores(self):
        model = RankerModel.create("wln", hidden=8, depth=2, seed=8)
        g = parse_smiles("CC(=O)CC.O")
        pool = [Candidate(EditSet.of([(1, 2, BondType.SINGLE)]), g),
                Candidate(EditSet.of([(1, 3, BondType.NONE)]), g),
                Candidate(EditSet.of([(2, 5, BondType.SINGLE)]), g)]
        ranked = rank_candidates(g, pool, model)
        assert all(c.score is not None for c in ranked)
        assert [c.score for c in ranked] == sorted((c.score for c in pool), reverse=True)

    def test_non_finite_score_raises(self):
        # 1e300 is a finite weight that loads fine, but the scores overflow
        model = RankerModel.create("wldn", hidden=8, depth=2, seed=8)
        model.store["mol.Win"].values[:] = 1e300
        g = parse_smiles("CC(=O)CC.O")
        pool = [Candidate(EditSet.of([(1, 2, BondType.SINGLE)]), g),
                Candidate(EditSet.of([(2, 5, BondType.SINGLE)]), g)]
        with pytest.raises(ValueError, match="non-finite score nan for candidate 0 of 2"):
            rank_candidates(g, pool, model)

    def test_empty_candidates_rejected(self):
        model = RankerModel.create("wln", hidden=8, depth=2, seed=9)
        with pytest.raises(ValueError, match="needs a nonempty candidate list"):
            rank_candidates(parse_smiles("CC"), [], model)

    @pytest.mark.parametrize("variant", RankerModel.VARIANTS)
    def test_empty_batches_score_nothing(self, variant):
        # No candidate scores to a (0, 1) column; only rank_candidates, whose
        # reaction then has no answer, rejects an empty list.
        model = RankerModel.create(variant, hidden=8, depth=2, seed=9)
        g = parse_smiles("CCO")
        assert model.score_reactions([(g, [])]).shape == (0, 1)
        assert model.score_reactions([]).shape == (0, 1)
        assert rank_reactions([], model) == []


def full_layout_store(variant, hidden, depth, seed):
    """A ranker store in the layout that holds both variants' tensors and
    metadata, drawn in creation order: mol, diff, sum.*, wldn.*."""
    rng = np.random.default_rng(seed)
    store = de.ParamStore(metadata={
        "kind": "ranker", "variant": variant, "hidden": str(hidden),
        "seed": str(seed), "version": "1", **FIXED_METADATA})
    WLNParams.create(store, "mol", ATOM_FEATURE_DIM, hidden, depth, rng)
    WLNParams.create(store, "diff", hidden, hidden, depth, rng, variant="gated")
    for name in ("sum.M", "sum.u", "wldn.M", "wldn.u"):
        store.create(name, hidden, hidden if name.endswith(".M") else 1, rng)
    return store


# What each variant holds; everything else belongs to the other variant.
OWN_PREFIXES = {"wln": ("mol.", "sum."), "wldn": ("mol.", "diff.", "wldn.")}


class TestCheckpointLayout:
    @pytest.mark.parametrize("variant", ["wln", "wldn"])
    def test_each_variant_holds_exactly_its_tensors(self, variant):
        model = RankerModel.create(variant, hidden=8, depth=2, seed=11)
        mol = ["mol.U1", "mol.U2", "mol.V", "mol.W0", "mol.W1", "mol.W2", "mol.Win"]
        diff = ["diff.U1", "diff.U2", "diff.Vf", "diff.Vh", "diff.W0", "diff.W1", "diff.W2"]
        expected = (mol + ["sum.M", "sum.u"] if variant == "wln"
                    else diff + mol + ["wldn.M", "wldn.u"])
        assert model.store.names() == sorted(expected)
        has_diff_meta = any(k.startswith("diff.") for k in model.store.metadata)
        assert has_diff_meta == (variant == "wldn")
        assert (model.diff_wln is None) == (variant == "wln")

    @pytest.mark.parametrize("variant", ["wln", "wldn"])
    def test_kept_tensors_equal_full_layout_draw(self, variant, tmp_path):
        # The full layout with the other variant's tensors and metadata
        # dropped saves byte for byte as the per-variant model.
        full = full_layout_store(variant, hidden=8, depth=2, seed=12)
        model = RankerModel.create(variant, hidden=8, depth=2, seed=12)
        for name in model.store.names():
            assert model.store[name].values.tobytes() == full[name].values.tobytes()
        own = OWN_PREFIXES[variant]
        for name in full.names():
            if "." in name and not name.startswith(own):
                del full.params[name]
        for key in list(full.metadata):
            if "." in key and not key.startswith(own):
                del full.metadata[key]
        full.save(tmp_path / "dropped.ckpt")
        model.save(tmp_path / "model.ckpt")
        assert (tmp_path / "dropped.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("variant", ["wln", "wldn"])
    def test_both_variant_file_loads_scores_and_resaves(self, variant, tmp_path):
        old, new, again = (tmp_path / f"{n}.ckpt" for n in ("old", "new", "again"))
        full_layout_store(variant, hidden=8, depth=2, seed=13).save(old)
        RankerModel.create(variant, hidden=8, depth=2, seed=13).save(new)
        from_old, from_new = RankerModel.load(old), RankerModel.load(new)
        g = parse_smiles("CC(=O)Cl.NCC.O")
        cands = enumerate_candidates(g, [(1, 3), (3, 4), (1, 2), (0, 5)],
                                     2).candidates
        assert len(cands) > 5
        a = from_old.score_reactions([(g, cands)]).values
        b = from_new.score_reactions([(g, cands)]).values
        assert a.tobytes() == b.tobytes()
        from_old.save(again)
        assert again.read_bytes() == old.read_bytes()
