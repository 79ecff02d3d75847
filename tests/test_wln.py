import numpy as np
import pytest

from helpers import graph_distance, random_permutation
from rxnpred import diffengine as de
from rxnpred.candgen import Candidate, EditSet
from rxnpred.center import CenterModel
from rxnpred.chemgraph import BondType, atom_feature_matrix, parse_smiles
from rxnpred.datagen import random_molecule
from rxnpred.ranker import RankerModel
from rxnpred.selfcheck import naive_atom_vectors, permute_graph
from rxnpred.wln import WLNParams, embed_atoms, embed_from_features, graph_inputs


def make_params(in_dim, hidden=10, depth=3, seed=0, variant="concat"):
    store = de.ParamStore()
    rng = np.random.default_rng(seed)
    return store, WLNParams.create(store, "wln", in_dim, hidden, depth, rng, variant=variant)


FEAT_DIM = atom_feature_matrix(parse_smiles("C")).shape[1]


class TestEmbedding:
    def test_isolated_atom_embeds_to_zero(self):
        _, p = make_params(FEAT_DIM)
        g = parse_smiles("[Na+]")
        c = embed_atoms(g, p)
        assert np.array_equal(c.values, np.zeros((1, p.hidden)))

    def test_all_isolated_graph_sum_is_zero(self):
        _, p = make_params(FEAT_DIM)
        g = parse_smiles("[Na+].[Cl-].[K+]")
        assert np.array_equal(de.sum_rows(embed_atoms(g, p)).values, np.zeros((1, p.hidden)))

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(2)
        _, p = make_params(FEAT_DIM, seed=3)
        for _ in range(10):
            g = random_molecule(rng)
            perm = random_permutation(rng, g.n_atoms)
            base = embed_atoms(g, p).values
            permuted = embed_atoms(permute_graph(g, perm), p).values
            for old, new in enumerate(perm):
                assert np.array_equal(base[old], permuted[new])

    def test_graph_vector_permutation_invariant_exact(self):
        rng = np.random.default_rng(4)
        _, p = make_params(FEAT_DIM, seed=5)
        g = random_molecule(rng, n_atoms=9, allow_curated=False)
        base = de.sum_rows(embed_atoms(g, p)).values
        for _ in range(10):
            pg = permute_graph(g, random_permutation(rng, g.n_atoms))
            assert np.array_equal(base, de.sum_rows(embed_atoms(pg, p)).values)

    def test_two_components_sum_separately(self):
        _, p = make_params(FEAT_DIM, seed=7)
        whole = parse_smiles("CC(=O)N.c1ccccc1")
        part_a = parse_smiles("CC(=O)N")
        part_b = parse_smiles("c1ccccc1")
        total = de.sum_rows(embed_atoms(whole, p)).values
        split = (de.sum_rows(embed_atoms(part_a, p)).values
                 + de.sum_rows(embed_atoms(part_b, p)).values)
        assert np.allclose(total, split, atol=1e-12)

    def test_receptive_field_bitwise(self):
        # depth L touches messages L hops out; the final comparison adds one
        # more hop, so atoms farther than depth+1 cannot influence a vector.
        depth = 2
        _, p = make_params(FEAT_DIM, depth=depth, seed=9)
        g = parse_smiles("CCCCCCCCCC")
        base = embed_atoms(g, p).values
        far = parse_smiles("CCCCCCCCCN")  # element changed at index 9
        changed = embed_atoms(far, p).values
        dist = graph_distance(g, 9)
        for v in range(g.n_atoms):
            if dist[v] > depth + 1:
                assert np.array_equal(base[v], changed[v])
        assert not np.array_equal(base[9], changed[9])

    def test_projection_can_be_dropped(self):
        store, p = make_params(4, hidden=4, variant="gated")
        assert p.w_in is None and "wln.Win" not in store
        assert store.metadata["wln.project"] == "0"
        g = parse_smiles("CCO")
        x = de.constant(np.eye(3, 4))
        out = embed_from_features(graph_inputs(g), x, p)
        assert out.shape == (3, 4)

    def test_gated_needs_hidden_size_input(self):
        with pytest.raises(ValueError, match=r"in_dim \(5\) must equal hidden \(4\)"):
            make_params(5, hidden=4, variant="gated")

    def test_dimension_mismatch_reported(self):
        _, p = make_params(FEAT_DIM, hidden=8)
        g = parse_smiles("CC")
        with pytest.raises(de.ShapeError):
            embed_from_features(graph_inputs(g), de.constant(np.zeros((2, 5))), p)


class TestComparisonForm:
    def test_matches_reference_tensor_oracle(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            g = random_molecule(rng)
            _, p = make_params(FEAT_DIM, hidden=12, depth=2, seed=seed)
            fast = embed_atoms(g, p).values
            slow = naive_atom_vectors(g, p)
            assert np.max(np.abs(fast - slow)) < 1e-10 if fast.size else True


class TestGatedVariant:
    def test_zero_features_propagate_to_zero(self):
        _, p = make_params(6, hidden=6, variant="gated", seed=13)
        g = parse_smiles("CC(=O)c1ccccc1")
        zeros = de.constant(np.zeros((g.n_atoms, 6)))
        out = embed_from_features(graph_inputs(g), zeros, p)
        assert np.array_equal(out.values, np.zeros((g.n_atoms, 6)))

    def test_nonzero_features_do_not(self):
        _, p = make_params(6, hidden=6, variant="gated", seed=13)
        g = parse_smiles("CC(=O)c1ccccc1")
        x = de.constant(np.random.default_rng(1).normal(size=(g.n_atoms, 6)))
        out = embed_from_features(graph_inputs(g), x, p)
        assert np.any(out.values != 0.0)


class TestGradients:
    @pytest.mark.parametrize("variant", ["concat", "gated"])
    def test_embedding_norm_gradient(self, variant):
        # every weight and the input features are finite-differenced
        rng = np.random.default_rng(15)
        g = random_molecule(rng, n_atoms=6, allow_curated=False)
        gi = graph_inputs(g)
        x = gi.features.values if variant == "concat" else rng.normal(size=(g.n_atoms, 6))
        store, p = make_params(x.shape[1], hidden=6, depth=2, seed=17, variant=variant)
        store.params["x"] = de.DTensor(x.copy(), requires_grad=True)

        def f(s):
            c = embed_from_features(gi, s["x"], p)
            return de.dot(c, c)  # sum of squared vector norms

        err = de.grad_check(f, store, h=1e-5, rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_shared_layer_weights_single_copy(self):
        store, p = make_params(FEAT_DIM, hidden=8, depth=3)
        layer_names = [n for n in store.names() if n.split(".")[-1] in ("U1", "U2", "V")]
        assert sorted(layer_names) == ["wln.U1", "wln.U2", "wln.V"]


class TestActivation:
    def test_patched_op_sees_every_use(self, monkeypatch):
        calls = []
        original = de.relu

        def counted(t):
            calls.append(t.shape)
            return original(t)

        monkeypatch.setattr(de, "relu", counted)
        _, p = make_params(FEAT_DIM)
        g = parse_smiles("CCO")
        embed_atoms(g, p)
        # one message and one update activation per round
        assert calls == [(4, 10), (3, 10)] * 3

    def test_patched_op_sees_the_score_heads(self, monkeypatch):
        calls = []
        original = de.relu
        monkeypatch.setattr(de, "relu", lambda t: calls.append(t.shape) or original(t))
        g = parse_smiles("CCO")
        CenterModel.create("local", hidden=4, depth=1).score_matrix(g)
        # one round's message and update, then the pair head over 3 pairs
        assert calls == [(4, 4), (3, 4), (3, 4)]
        calls.clear()
        cand = Candidate(EditSet.of([(0, 1, BondType.DOUBLE)]), g)
        RankerModel.create("wln", hidden=4, depth=1).score_candidates(g, [cand])
        # one round over the union of the reactants and the product's edited
        # component (6 atoms, 8 directed edges), then the pooled head
        assert calls == [(8, 4), (6, 4), (1, 4)]
