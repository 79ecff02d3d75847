import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rxnpred import center
from rxnpred import diffengine as de
from rxnpred.candgen import BondEdit, EditSet
from rxnpred.center import (PAIR_FEATURE_DIM, CenterModel, center_loss, coverage,
                            reaction_edits, top_k_pairs, upper_pairs)
from rxnpred.chemgraph import BondType, make_graph, merge_graphs, parse_smiles, write_smiles
from rxnpred.datagen import random_molecule, random_reaction_line
from rxnpred.pipeline import parse_reaction_line
from rxnpred.selfcheck import center_gradient_error, composed_center_head, permute_graph

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def reaction(reactants, product):
    """Reactant and product graphs of a mapped reaction."""
    return parse_smiles(reactants), parse_smiles(product)


def by_maps(g, *pairs):
    """Translate map-number pairs into index pairs."""
    m = g.map_to_index()
    return {(min(m[a], m[b]), max(m[a], m[b])) for a, b in pairs}


def loop_pair_changes(reactants, product):
    """The per-pair loop that true edits came from, kept as the reference
    for the bond-type-matrix version."""
    r_map = reactants.map_to_index()
    p_map = product.map_to_index()
    to_product = {ri: p_map[m] for m, ri in r_map.items() if m in p_map}
    changed = {}
    n = reactants.n_atoms
    for u in range(n):
        for v in range(u + 1, n):
            r_type = reactants.bond_type_between(u, v)
            pu, pv = to_product.get(u), to_product.get(v)
            if pu is not None and pv is not None:
                p_type = product.bond_type_between(pu, pv)
            elif pu is None and pv is None:
                continue
            else:
                p_type = BondType.NONE
            if p_type is not r_type:
                changed[(u, v)] = p_type
    return changed


def loop_pair_features(g, pairs):
    """Per-pair reference for the pair-code feature rows."""
    out = np.zeros((len(pairs), PAIR_FEATURE_DIM))
    for k, (u, v) in enumerate(pairs):
        bt = BondType.NONE if u == v else g.bond_type_between(u, v)
        out[k, bt.value] = 1.0
        out[k, 5] = 1.0 if g.component[u] == g.component[v] else 0.0
    return out


class TestLabels:
    def test_substitution_labels(self):
        reactants, product = reaction("[CH3:1][Cl:2].[NH2:3][CH3:4]", "[CH3:1][NH:3][CH3:4]")
        assert frozenset(reaction_edits(reactants, product).pairs) == frozenset(
            by_maps(reactants, (1, 2), (1, 3)))

    def test_identity_reaction_all_zero(self):
        rxn = reaction("[CH3:1][OH:2]", "[CH3:1][OH:2]")
        assert frozenset(reaction_edits(*rxn).pairs) == frozenset()

    def test_ring_forming_three_pair_center(self):
        reactants, product = reaction(
            "[cH:7]1[cH:2][cH:3][cH:4][cH:5][cH:8]1.[CH3:27][Cl:28]",
            "[c:7]12[cH:2][cH:3][cH:4][cH:5][c:8]1:[CH2:27]:2.[Cl:28]")
        edits = reaction_edits(reactants, product)
        assert frozenset(edits.pairs) == frozenset(
            by_maps(reactants, (27, 28), (7, 27), (8, 27)))
        m = reactants.map_to_index()
        assert BondEdit(min(m[7], m[27]), max(m[7], m[27]), BondType.AROMATIC) in edits.edits

    def test_reagent_components_stay_zero(self):
        # the ether is a spectator: absent from the product on both ends
        reactants, product = reaction("[CH3:1][Cl:2].COC", "[CH3:1]")
        assert frozenset(reaction_edits(reactants, product).pairs) == frozenset(
            by_maps(reactants, (1, 2)))

    def test_departed_fragment_internal_bonds_unchanged(self):
        # the whole mapped ethyl fragment leaves; only the attachment breaks
        reactants, product = reaction("[CH3:1][CH2:2][CH3:3]", "[CH3:1]")
        assert frozenset(reaction_edits(reactants, product).pairs) == frozenset(
            by_maps(reactants, (1, 2)))

    def test_unmapped_product_atom_rejected(self):
        rxn = reaction("[CH3:1][OH:2]", "C[OH:2]")
        with pytest.raises(ValueError):
            reaction_edits(*rxn)

    def test_unknown_product_map_rejected(self):
        rxn = reaction("[CH3:1][OH:2]", "[CH3:1][OH:9]")
        with pytest.raises(ValueError):
            reaction_edits(*rxn)

    @PROPERTY
    @given(seed=st.integers(0, 2 ** 32 - 1), spectators=st.integers(0, 3))
    def test_labels_and_edits_equal_loop_reference(self, seed, spectators):
        rng = np.random.default_rng(seed)
        reactants, _, product = random_reaction_line(rng).split(">")
        reagents = ".".join(write_smiles(random_molecule(rng)) for _ in range(spectators))
        rec = parse_reaction_line(f"{reactants}>{reagents}>{product}")
        expected = loop_pair_changes(rec.reactants, rec.product)
        assert reaction_edits(rec.reactants, rec.product) == EditSet.of(
            BondEdit(u, v, t) for (u, v), t in expected.items())


def pair_feature_matrix(g, pairs):
    """Each pair's feature row, through its pair code."""
    idx = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return center._CODE_ROWS[center._pair_codes(g, idx[:, 0], idx[:, 1])]


class TestPairFeatures:
    def test_bond_slot_and_molecule_flag(self):
        g = parse_smiles("CC.O")
        feats = pair_feature_matrix(g, [(0, 1), (0, 2), (2, 2)])
        assert feats[0].tolist() == [0, 1, 0, 0, 0, 1]  # bonded, same molecule
        assert feats[1].tolist() == [1, 0, 0, 0, 0, 0]  # no bond, different
        assert feats[2].tolist() == [1, 0, 0, 0, 0, 1]  # self pair: none + same

    @PROPERTY
    @given(seed=st.integers(0, 2 ** 32 - 1), parts=st.integers(1, 4))
    def test_equal_to_loop_reference(self, seed, parts):
        rng = np.random.default_rng(seed)
        g = merge_graphs([random_molecule(rng) for _ in range(parts)])
        pairs = [(u, v) for u in range(g.n_atoms) for v in range(g.n_atoms)]
        expected = loop_pair_features(g, pairs)
        assert pair_feature_matrix(g, pairs).tobytes() == expected.tobytes()
        assert pair_feature_matrix(g, np.array(pairs)).tobytes() == expected.tobytes()
        upper = upper_pairs(g.n_atoms)
        assert [tuple(p) for p in upper.tolist()] == [p for p in pairs if p[0] < p[1]]

    def test_symmetric_in_pair_order(self):
        g = parse_smiles("C=CC")
        a = pair_feature_matrix(g, [(0, 1)])
        b = pair_feature_matrix(g, [(1, 0)])
        assert np.array_equal(a, b)


class TestScoring:
    def test_zero_head_gives_half_everywhere(self):
        model = CenterModel.create("local", hidden=8, depth=2, seed=0)
        model.store["score.u"].values[:] = 0.0
        matrix = model.score_matrix(parse_smiles("CC(=O)N"))
        off_diag = matrix[~np.eye(4, dtype=bool)]
        assert np.all(off_diag == 0.5)

    def test_score_matrix_symmetry_bitwise(self):
        for variant in ("local", "global"):
            model = CenterModel.create(variant, hidden=8, depth=2, seed=1)
            matrix = model.score_matrix(parse_smiles("CC(=O)N.c1ccccc1"))
            assert np.array_equal(matrix, matrix.T)

    def test_degenerate_attention_reduces_to_pair_features(self):
        # with zero context the head must equal sigmoid(u . act(Mb b + bias))
        model = CenterModel.create("global", hidden=8, depth=2, seed=2)
        g = parse_smiles("CC")
        pairs = upper_pairs(2)
        codes = center._pair_codes(g, pairs[:, 0], pairs[:, 1])
        bf = center._CODE_ROWS[codes]
        zero = de.constant(np.zeros((g.n_atoms, model.hidden)))
        got = model._head(zero, pairs[:, 0], pairs[:, 1], codes,
                          "score.Ma", "score.Mb", "score.bias", "score.u").values
        z = np.maximum(bf @ model.store["score.Mb"].values
                       + model.store["score.bias"].values, 0.0)
        expect = 1.0 / (1.0 + np.exp(-(z @ model.store["score.u"].values)))
        assert np.allclose(got, expect, atol=1e-12)

    def test_single_atom_context_is_self_attention(self):
        model = CenterModel.create("global", hidden=8, depth=2, seed=3)
        g = parse_smiles("[CH4:1]")
        from rxnpred.wln import embed_from_features, graph_inputs
        gi = graph_inputs(g)
        c = embed_from_features(gi, gi.features, model.wln)
        alpha, = model._attention([g], c)
        context = de.matmul(alpha, c)
        assert np.allclose(context.values, alpha.values[0, 0] * c.values, atol=1e-15)

    def test_inference_records_no_graph(self, monkeypatch):
        heads = []
        sigmoid = de.sigmoid
        monkeypatch.setattr(de, "sigmoid", lambda t: heads.append(sigmoid(t)) or heads[-1])
        model = CenterModel.create("global", hidden=8, depth=2, seed=4)
        g = parse_smiles("CC(=O)N.FB(F)F")
        model.score_matrix(g)
        model.attention_map(g)
        assert len(heads) == 3 and not any(t._parents for t in heads)

    def test_attention_entries_in_unit_interval(self):
        model = CenterModel.create("global", hidden=8, depth=2, seed=4)
        alpha = model.attention_map(parse_smiles("CC(=O)N.FB(F)F"))
        assert np.all((alpha > 0.0) & (alpha < 1.0))

    def test_global_sees_disconnected_reagent_local_does_not(self):
        base = "CC(=O)CCN.FB(F)F"
        changed = "CC(=O)CCN.ClS(Cl)Cl"  # perturb only the reagent component
        g1, g2 = parse_smiles(base), parse_smiles(changed)
        core_pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]

        local = CenterModel.create("local", hidden=8, depth=2, seed=5)
        m1 = local.score_matrix(g1)
        m2 = local.score_matrix(g2)
        for u, v in core_pairs:
            assert m1[u, v] == m2[u, v]  # beyond any core pair's receptive field

        global_model = CenterModel.create("global", hidden=8, depth=2, seed=5)
        m1 = global_model.score_matrix(g1)
        m2 = global_model.score_matrix(g2)
        assert any(m1[u, v] != m2[u, v] for u, v in core_pairs)


# Charged and aromatic fragments that inference-equality molecules may add.
CHARGED_AROMATIC = ("[NH4+]", "[O-]C(=O)C", "C[N+](C)(C)C", "c1ccncc1", "Cc1ccccc1",
                    "[Na+].[Cl-]")


@st.composite
def inference_instances(draw):
    """A multi-component molecule (charged and aromatic fragments among its
    parts) under a random atom order, a model and an inference block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [random_molecule(rng) for _ in range(draw(st.integers(1, 4)))]
    parts += [parse_smiles(s) for s in draw(st.lists(st.sampled_from(CHARGED_AROMATIC),
                                                    max_size=2))]
    g = merge_graphs(parts)
    g = permute_graph(g, [int(i) for i in draw(st.permutations(range(g.n_atoms)))])
    model = CenterModel.create(draw(st.sampled_from(["local", "global"])),
                               hidden=draw(st.sampled_from([3, 8, 16])), depth=2,
                               seed=draw(st.integers(0, 1000)))
    return g, model, draw(st.integers(1, 40))


class TestInferenceHead:
    """The one pair head gathers projected rows in blocks, where the composed
    head (``selfcheck.composed_center_head``) projects gathered rows of every
    pair at once and scores all n² ordered attention pairs. Scores, attention
    maps and losses must equal the composed head's bytes, and gradients must
    agree within 1e-12 relative: the weight gradients sum in another order."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inference_instances())
    @example((parse_smiles("CO"), CenterModel.create("global", hidden=8, depth=2, seed=1), 1))
    @example((parse_smiles("[Na+].[Cl-]"), CenterModel.create("global", hidden=8, depth=2,
                                                               seed=2), 2))
    @example((parse_smiles("[Na+].[Cl-]"), CenterModel.create("local", hidden=8, depth=2,
                                                               seed=3), 1))
    def test_bytes_equal_composed_ops(self, instance):
        g, model, block = instance
        with composed_center_head(model):
            matrix = model.score_matrix(g)
            alpha = model.attention_map(g) if model.variant == "global" else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(center, "PAIR_BLOCK", block)
            got = model.score_matrix(g)
            assert got.shape == matrix.shape and got.tobytes() == matrix.tobytes()
            if model.variant == "global":
                att = model.attention_map(g)
                assert att.shape == alpha.shape and att.tobytes() == alpha.tobytes()
                assert alpha.tobytes() == alpha.T.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inference_instances(), st.integers(0, 2 ** 32 - 1))
    @example((parse_smiles("[Na+].[Cl-]"), CenterModel.create("global", hidden=8, depth=2,
                                                               seed=2), 1), 0)
    def test_gradients_match_composed_ops(self, instance, seed):
        # blocks of at most 40 pairs: most instances stack several blocks
        g, model, block = instance
        pairs = upper_pairs(g.n_atoms)
        chosen = pairs[np.random.default_rng(seed).permutation(len(pairs))[:3]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(center, "PAIR_BLOCK", block)
            same_loss, err = center_gradient_error(model, g, truth(*map(tuple, chosen.tolist())))
        assert same_loss and err <= 1e-12


@st.composite
def graph_unions(draw):
    """One to six graphs for one batched pass, random molecules mixed with
    graphs of 0, 1 and 2 atoms, a model seed and a head block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tiny = {"empty": make_graph([], []), "C": parse_smiles("C"), "CO": parse_smiles("CO"),
            "[Na+].[Cl-]": parse_smiles("[Na+].[Cl-]")}
    names = draw(st.lists(st.sampled_from([*tiny, "random"]), min_size=1, max_size=6))
    graphs = [random_molecule(rng) if name == "random" else tiny[name] for name in names]
    return graphs, draw(st.integers(0, 1000)), draw(st.integers(1, 40))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(graph_unions())
def test_batched_matrices_equal_each_graph_alone(instance):
    # blocks of 1 to 40 pairs, so most blocks hold pairs of several graphs
    graphs, seed, block = instance
    for variant in CenterModel.VARIANTS:
        model = CenterModel.create(variant, hidden=8, depth=2, seed=seed)
        alone = [model.score_matrix(g) for g in graphs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(center, "PAIR_BLOCK", block)
            together = model.score_matrices(graphs)
        assert [m.shape for m in together] == [m.shape for m in alone]
        assert [m.tobytes() for m in together] == [m.tobytes() for m in alone]
        assert model.score_matrices([]) == []


def truth(*pairs):
    """An edit set that changes ``pairs``; the loss reads only the pairs."""
    return EditSet.of((u, v, BondType.SINGLE) for u, v in pairs)


class TestLoss:
    def test_uniform_scores_give_pairs_times_ln2(self):
        n = 5
        n_pairs = n * (n - 1) // 2
        scores = de.constant(np.full((n_pairs, 1), 0.5))
        loss = center_loss(scores, upper_pairs(n), truth((0, 1))).item()
        assert abs(loss - n_pairs * math.log(2)) < 1e-12

    def test_perfect_scores_near_zero(self):
        # pairs (0,1), (0,2), (1,2), as upper_pairs orders them
        scores = de.constant([[0.0], [1.0], [0.0]])
        loss = center_loss(scores, upper_pairs(3), truth((0, 2))).item()
        assert 0.0 <= loss <= 3 * 1e-11

    def test_hand_computed_three_atom_instance(self):
        vals = {(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.4}
        expected = -(math.log(0.9) + math.log(0.8) + math.log(0.6))
        # upper_pairs' order, and another: each score row belongs to its pair row
        for pairs in (upper_pairs(3), np.array([[1, 2], [0, 1], [0, 2]])):
            scores = de.constant([[vals[tuple(p)]] for p in pairs.tolist()])
            assert abs(center_loss(scores, pairs, truth((0, 1))).item() - expected) < 1e-12

    def test_truth_pair_missing_from_pairs_raises(self):
        pairs = np.array([[0, 1], [1, 2]])
        scores = de.constant([[0.5], [0.5]])
        with pytest.raises(ValueError, match=r"truth pair \(0, 2\) is not among"):
            center_loss(scores, pairs, truth((0, 1), (0, 2)))
        with pytest.raises(ValueError, match="not among"):
            center_loss(de.constant(np.zeros((0, 1))), upper_pairs(1), truth((0, 1)))

    def test_gradient_against_differences(self):
        model = CenterModel.create("local", hidden=6, depth=2, seed=6)
        g = parse_smiles("CC(=O)N")

        def f(_):
            return center_loss(*model.pair_scores(g), truth((0, 1), (2, 3)))

        assert de.grad_check(f, model.store, h=1e-5,
                             rng=np.random.default_rng(0)) < 1e-4


class TestTopKAndCoverage:
    def test_unique_max(self):
        m = np.zeros((4, 4))
        m[1, 3] = m[3, 1] = 0.9
        assert top_k_pairs(m, 1) == [(1, 3)]

    def test_tie_break_is_lexicographic(self):
        m = np.full((4, 4), 0.7)
        assert top_k_pairs(m, 2) == [(0, 1), (0, 2)]

    def test_k_beyond_pair_count_returns_all(self):
        m = np.zeros((3, 3))
        assert len(top_k_pairs(m, 99)) == 3

    def test_agrees_with_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 20
            sym = rng.random((n, n))
            sym = (sym + sym.T) / 2
            np.fill_diagonal(sym, 0.0)
            k = int(rng.integers(1, 30))
            got = top_k_pairs(sym, k)
            ranked = sorted(((u, v) for u in range(n) for v in range(u + 1, n)),
                            key=lambda p: (-sym[p], p))
            assert got == ranked[:k]

    @PROPERTY
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 150),
           levels=st.integers(1, 5))
    @example(seed=1, n=150, levels=1)
    @example(seed=2, n=150, levels=5)
    def test_agrees_with_sort_oracle_under_heavy_ties(self, seed, n, levels):
        # few distinct values, signed zeros among them, read from the upper
        # triangle of an asymmetric matrix
        rng = np.random.default_rng(seed)
        m = rng.choice(np.array([0.0, -0.0, 0.25, 1.0, -3.5, 0.25 + 1e-16])[:levels + 1],
                       size=(n, n))
        ranked = sorted(((u, v) for u in range(n) for v in range(u + 1, n)),
                        key=lambda p: (-m[p], p))
        last = len(ranked)
        for k in {1, 2, 7, last // 2 + 1, max(last, 1), last + 3}:
            assert top_k_pairs(m, k) == ranked[:k]

    @PROPERTY
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40),
           k=st.integers(1, 900), extra=st.integers(0, 900))
    def test_shorter_list_is_prefix_of_longer(self, seed, n, k, extra):
        m = np.round(np.random.default_rng(seed).random((n, n)), 1)
        assert top_k_pairs(m, k) == top_k_pairs(m, k + extra)[:k]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        m = np.full((4, 4), bad)
        with pytest.raises(ValueError, match="non-finite"):
            top_k_pairs(m, 2)
        m = np.full((4, 4), 0.5)
        m[1, 3] = m[3, 1] = -bad
        with pytest.raises(ValueError, match="non-finite"):
            top_k_pairs(m, 2)

    def test_coverage_cases(self):
        assert coverage([], truth())
        assert coverage([(3, 4), (2, 1)], truth((1, 2)))
        assert not coverage([(3, 4)], truth((1, 2)))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_pairs(np.zeros((3, 3)), 0)

    def test_batch_coverage_fraction_matches_hand_count(self):
        # ten fixed cases: the true pair's score rank decides coverage@2
        hits = 0
        expected_hits = 0
        for case in range(10):
            n = 5
            m = np.zeros((n, n))
            order = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for rank, (u, v) in enumerate(order):
                m[u, v] = m[v, u] = 1.0 - 0.01 * rank
            truth_pair = order[case % len(order)]
            hits += int(coverage(top_k_pairs(m, 2), truth(truth_pair)))
            expected_hits += int(order.index(truth_pair) < 2)  # hand count
        assert hits == expected_hits == 2
