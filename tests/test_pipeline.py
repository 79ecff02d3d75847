import inspect
import logging
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnpred import datagen, pipeline
from rxnpred import diffengine as de
from rxnpred.candgen import BondEdit, Candidate, EditSet
from rxnpred.center import CenterModel, coverage, top_k_pairs
from rxnpred.chemgraph import (BondType, apply_edits, induced_subgraph, make_graph, parse_smiles,
                               write_smiles)
from rxnpred.pipeline import (MAX_ATOMS, MAX_BATCH_ATOMS, RunConfig, evaluate, load_dataset,
                              parse_reaction_line, predict, split_records,
                              train_center, train_ranker)
from rxnpred.ranker import RankerModel, rank_candidates, rank_reactions

HAND_LINES = [
    "[CH3:1][Cl:2].[NH2:3][CH3:4]>>[CH3:1][NH:3][CH3:4]",
    "[CH3:1][OH:2]>>[CH3:1].[OH:2]",
    "[C:1]=[C:2].[Cl:3][Cl:4]>>[C:1]([Cl:3])[C:2][Cl:4]",
    "[CH3:1][C:2](=[O:3])[Cl:4].[NH2:5][CH3:6]>>[CH3:1][C:2](=[O:3])[NH:5][CH3:6]",
    "[O:1]=[C:2]([CH3:3])[CH3:4]>FB(F)F>[O:1][C:2]([CH3:3])[CH3:4]",
    "[CH3:1][S:2][CH3:3]>>[CH3:1][S:2]=[CH2:3]",
    "[cH:1]1[cH:2][cH:3][cH:4][cH:5][cH:6]1.[Br:7][Br:8]>>[c:1]1([Br:7])[cH:2][cH:3][cH:4][cH:5][cH:6]1",
    "[CH3:1][CH2:2][I:3].[SH2:4]>>[CH3:1][CH2:2][SH:4]",
]


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.txt"
    lines = ["# hand-built records"] + HAND_LINES + ["", "# sampled records"]
    lines += datagen.toy_reaction_lines(12, seed=5)
    datagen.write_lines(path, lines)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_file):
    out = tmp_path_factory.mktemp("models")
    ccfg = RunConfig(data=str(toy_file), out=str(out / "center.ckpt"),
                     variant="local", epochs=12, lr=0.003, decay=0.97, seed=0,
                     split=(1.0, 0.0, 0.0))
    train_center(ccfg)
    rcfg = RunConfig(data=str(toy_file), out=str(out / "ranker.ckpt"),
                     variant="wldn", epochs=8, lr=0.003, decay=0.97, seed=0,
                     split=(1.0, 0.0, 0.0), center="oracle", augment_truth=True)
    train_ranker(rcfg)
    return (CenterModel.load(out / "center.ckpt"),
            RankerModel.load(out / "ranker.ckpt"))


class TestRecordParsing:
    def test_substitution_edit_recovery(self):
        rec = parse_reaction_line(HAND_LINES[0])
        m = rec.reactants.map_to_index()
        assert rec.true_edits == EditSet.of([
            BondEdit(m[1], m[2], BondType.NONE),
            BondEdit(m[1], m[3], BondType.SINGLE)])

    def test_reagent_field_merges_into_reactants(self):
        rec = parse_reaction_line(HAND_LINES[4])
        assert rec.reactants.n_components == 2
        reagent_atoms = [a for a in rec.reactants.atoms if a.map_number is None]
        assert len(reagent_atoms) == 4  # FB(F)F
        assert not any(rec.reactants.atoms[i].map_number is None
                       for i in rec.true_edits.atoms())

    def test_largest_product_component_kept(self):
        rec = parse_reaction_line(HAND_LINES[1])
        assert rec.product.n_atoms == 1  # CH3 vs OH: tie broken deterministically

    def test_malformed_field_count(self):
        with pytest.raises(ValueError):
            parse_reaction_line("CC>CC")

    def test_unmapped_product_rejected(self):
        with pytest.raises(ValueError):
            parse_reaction_line("[CH3:1][OH:2]>>CO")

    def test_no_change_rejected(self):
        with pytest.raises(ValueError):
            parse_reaction_line("[CH3:1][OH:2]>>[CH3:1][OH:2]")

    def test_size_cap(self):
        # Reagents count toward MAX_ATOMS: 2 reactant atoms plus a reagent
        # chain of MAX_ATOMS - 1 is one too many.
        def line(n_reagent):
            return f"[CH3:1][OH:2]>{'C' * n_reagent}>[CH3:1].[OH:2]"

        assert parse_reaction_line(line(MAX_ATOMS - 2)).reactants.n_atoms == MAX_ATOMS
        with pytest.raises(ValueError, match=f"too large \\({MAX_ATOMS + 1} atoms"):
            parse_reaction_line(line(MAX_ATOMS - 1))

    def test_edit_consistency_on_every_accepted_record(self, toy_file):
        records = load_dataset(toy_file)
        assert len(records) == len(HAND_LINES) + 12
        for rec in records:
            edited = apply_edits(rec.reactants, rec.true_edits)
            r_map = {a.map_number: i for i, a in enumerate(edited.atoms)}
            for bond in rec.product.bonds:
                mu = rec.product.atoms[bond.u].map_number
                mv = rec.product.atoms[bond.v].map_number
                got = edited.bond_type_between(r_map[mu], r_map[mv])
                assert got is bond.bond_type


def _with_maps(g, maps):
    atoms = [replace(a, map_number=m) for a, m in zip(g.atoms, maps)]
    return make_graph(atoms, [(b.u, b.v, b.bond_type) for b in g.bonds])


@st.composite
def reaction_lines(draw):
    """Datagen reactions with unmapped spectators in the reagent field, and
    reactant sets whose product is the recorded one or a random molecule,
    mapped onto random reactant maps."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reactants, _, product = datagen.random_reaction_line(rng).split(">")
    spectators = [write_smiles(datagen.random_molecule(rng))
                  for _ in range(draw(st.integers(0, 2)))]
    kind = draw(st.sampled_from(["recorded", "remapped", "random"]))
    if kind != "recorded":
        r_maps = [a.map_number for a in parse_smiles(reactants).atoms]
        p = parse_smiles(product)
        if kind == "random":
            p = datagen.random_molecule(rng, n_atoms=int(rng.integers(1, len(r_maps) + 1)))
        maps = [int(m) for m in rng.choice(r_maps, size=min(p.n_atoms, len(r_maps)),
                                           replace=False)]
        p = induced_subgraph(p, list(range(len(maps))))
        product = write_smiles(_with_maps(p, maps))
    return f"{reactants}>{'.'.join(spectators)}>{product}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reaction_lines())
def test_recorded_edits_give_exactly_the_product_bonds(line):
    # Applying the recorded edits to the reactants must leave every product
    # atom with exactly the product's bonds: no bond is missing, retyped, or
    # kept to an atom outside the product.
    try:
        rec = parse_reaction_line(line)
    except ValueError:
        return
    edited = apply_edits(rec.reactants, rec.true_edits)
    in_product = {a.map_number for a in rec.product.atoms}
    maps = [a.map_number for a in edited.atoms]
    got = {(frozenset((maps[b.u], maps[b.v])), b.bond_type) for b in edited.bonds
           if maps[b.u] in in_product or maps[b.v] in in_product}
    p_maps = [a.map_number for a in rec.product.atoms]
    expected = {(frozenset((p_maps[b.u], p_maps[b.v])), b.bond_type)
                for b in rec.product.bonds}
    assert got == expected


class TestLoading:
    def test_comments_and_blanks_skipped(self, toy_file):
        records = load_dataset(toy_file)
        assert all(not r.raw.startswith("#") for r in records)

    def test_malformed_lines_skipped_with_quorum(self, tmp_path, caplog):
        path = tmp_path / "mixed.txt"
        path.write_text("\n".join(HAND_LINES + ["garbage>>", "C1C>>C"]) + "\n")
        with caplog.at_level(logging.WARNING):
            records = load_dataset(path)
        assert len(records) == len(HAND_LINES)
        assert sum("skipped record" in r.message for r in caplog.records) == 2

    def test_majority_malformed_aborts(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("junk\nmore junk\n" + HAND_LINES[0] + "\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_byte_order_mark_keeps_the_first_record(self, tmp_path, caplog):
        path = tmp_path / "bom.txt"
        path.write_text("\n".join(HAND_LINES) + "\n", encoding="utf-8-sig")
        with caplog.at_level(logging.WARNING):
            records = load_dataset(path)
        assert [r.raw for r in records] == HAND_LINES
        assert not caplog.records


class TestSplit:
    def test_fractions_and_determinism(self):
        lines = datagen.toy_reaction_lines(300, seed=2)
        records = [parse_reaction_line(l) for l in lines]
        a = split_records(records, (0.8, 0.1, 0.1))
        b = split_records(records, (0.8, 0.1, 0.1))
        assert [len(x) for x in a] == [len(x) for x in b]
        assert abs(len(a[0]) / len(records) - 0.8) < 0.1
        assert len(a[0]) + len(a[1]) + len(a[2]) == len(records)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_records([], (0.5, 0.1, 0.1))

    @pytest.mark.parametrize("fractions", [
        (1.0,), (0.5, 0.5), (float("nan"), 0.0, 1.0), (1.5, -0.5, 0.0),
        (float("inf"), 0.0, 0.0)])
    def test_fractions_must_be_three_finite_non_negative_shares(self, fractions):
        # split_records and RunConfig share one check
        with pytest.raises(ValueError, match="split must be three finite, non-negative"):
            split_records([], fractions)
        with pytest.raises(ValueError, match="split must be three finite, non-negative"):
            RunConfig(split=fractions)


class TestConfig:
    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=8\nlr=0.01\nvariant=global\naugment-truth=true\n"
                        "split=0.9,0.05,0.05\n# comment\n")
        cfg = RunConfig.from_file(path, lr="0.5")
        assert cfg.k == 8 and cfg.variant == "global" and cfg.augment_truth
        assert cfg.lr == 0.5
        assert cfg.split == (0.9, 0.05, 0.05)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("k=8\nlr=0.01\n", encoding="utf-8-sig")
        assert RunConfig.from_file(path) == RunConfig(k=8, lr=0.01)
        # a byte that does not decode after the mark names its own line
        path.write_bytes("k=8\n".encode("utf-8-sig") + b"lr=\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: byte 0xff is not utf-8 text")):
            RunConfig.from_file(path)

    def test_overrides_without_a_file(self):
        # Flags reach RunConfig as text through the config-line parser.
        assert RunConfig.from_file() == RunConfig()
        assert RunConfig.from_file(k="9", split="0.6,0.2,0.2", augment_truth="true") == \
            RunConfig(k=9, split=(0.6, 0.2, 0.2), augment_truth=True)

    @pytest.mark.parametrize("key, raw, message", [
        ("max_changes", "x", "--max-changes: config key 'max_changes' takes an integer, got 'x'"),
        ("k", "0", "--k: config field k must be positive"),
        ("variant", "foo", "--variant: config field variant must be one of"),
        ("bogus", "1", "--bogus: unknown config key 'bogus'")])
    def test_bad_override_names_its_flag(self, key, raw, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            RunConfig.from_file(**{key: raw})

    def test_override_wins_over_a_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=x\n")
        assert RunConfig.from_file(path, k="5").k == 5

    def test_variants_are_the_models(self):
        for variant in CenterModel.VARIANTS + RankerModel.VARIANTS:
            assert RunConfig(variant=variant).variant == variant
        with pytest.raises(ValueError, match="variant must be one of local, global, wldn, wln, "
                                             "got 'foo'"):
            RunConfig(variant="foo")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        # attributes of RunConfig that are not settings are unknown keys too
        for line in ("bogus=1", "gen_config=1", "from_file=x"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown config key"):
                RunConfig.from_file(path)

    @pytest.mark.parametrize("line", ["activation=relu", "include_charge=0"])
    def test_removed_network_settings_are_unknown_keys(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"unknown config key {line.split('=')[0]!r}"):
            RunConfig.from_file(path)

    def test_max_atoms_is_an_unknown_key(self, tmp_path):
        # Training, evaluate and predict share the one cap MAX_ATOMS.
        path = tmp_path / "run.cfg"
        path.write_text("max_atoms=200\n")
        with pytest.raises(ValueError, match="unknown config key 'max_atoms'"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("field", ["lr", "decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rates_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("TRUE", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False)])
    def test_boolean_values(self, tmp_path, raw, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"augment_truth={raw}\n")
        assert RunConfig.from_file(path).augment_truth is value

    @pytest.mark.parametrize("raw", ["ture", "", "2", "y"])
    def test_misspelt_boolean_rejected(self, tmp_path, raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"augment_truth={raw}\n")
        with pytest.raises(ValueError, match="'augment_truth' takes 1/true/yes/on"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("line, message", [
        ("k=x", "config key 'k' takes an integer, got 'x'"),
        ("lr=abc", "config key 'lr' takes a number, got 'abc'"),
        ("target_train_p1=high", "config key 'target_train_p1' takes a number, got 'high'"),
        ("split=a,b", "config key 'split' takes three comma-separated fractions, got 'a,b'"),
        ("split=0.5,0.5", "split must be three finite"),
        ("bogus=1", "unknown config key 'bogus'")])
    def test_bad_value_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"# settings\nk=4\n\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("field", ["target_train_coverage", "target_train_p1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, -0.1])
    def test_early_stop_targets_must_be_shares(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be in \\[0, 1\\]"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("value", [None, 0.0, 0.5, 1.0])
    def test_early_stop_targets_accept_shares(self, value):
        assert RunConfig(target_train_coverage=value, target_train_p1=value).target_train_p1 == value

    def test_ranker_is_an_unknown_key(self, tmp_path):
        # Commands take the ranker checkpoint from --model, not from a config.
        path = tmp_path / "run.cfg"
        path.write_text("ranker=ranker.ckpt\n")
        with pytest.raises(ValueError, match="unknown config key 'ranker'"):
            RunConfig.from_file(path)


class TestTraining:
    def test_center_loss_decreases(self, toy_file, tmp_path):
        cfg = RunConfig(data=str(toy_file), out=str(tmp_path / "c.ckpt"),
                        variant="local", epochs=10, lr=0.003, decay=0.97,
                        seed=1, split=(1.0, 0.0, 0.0))
        result = train_center(cfg)
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < losses[0]
        assert (tmp_path / "c.ckpt").exists()

    def test_center_loss_strictly_decreases_when_stable(self, toy_file, tmp_path):
        # a gentle schedule descends monotonically through the first epochs
        cfg = RunConfig(data=str(toy_file), out=str(tmp_path / "c.ckpt"),
                        variant="local", epochs=10, batch=10, lr=0.001,
                        decay=1.0, seed=0, split=(1.0, 0.0, 0.0))
        losses = [h["loss"] for h in train_center(cfg).history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_center_checkpoint_reload_reproduces_scores(self, trained, toy_file):
        center, _ = trained
        records = load_dataset(toy_file)
        matrix = center.score_matrix(records[0].reactants)
        assert np.array_equal(matrix, matrix.T)

    def test_ranker_p1_bounded_by_coverage_without_augmentation(self, trained, toy_file):
        center, ranker = trained
        records = load_dataset(toy_file)
        plain = evaluate(records, center, ranker, RunConfig(k=6, augment_truth=False))
        assert plain.p_at[1] <= plain.coverage_at[6] + 1e-12


class TestPredict:
    def test_single_atom_reports_empty(self, trained):
        center, ranker = trained
        result = predict("[CH4:1]", center, ranker, k=6)
        assert result.products == [] and result.reason

    def test_repeated_map_number_rejected(self, trained):
        # load_dataset skips such a record: the edits would name two atoms
        # by one number.
        center, ranker = trained
        with pytest.raises(ValueError, match="duplicate atom map number 1"):
            predict("[CH3:1][CH2:1][OH:2]", center, ranker)
        with pytest.raises(ValueError, match="duplicate atom map number 1"):
            parse_reaction_line("[CH3:1][CH2:1][OH:2]>>[CH3:1][CH2:1].[OH:2]")

    def test_defaults_are_run_config_defaults(self):
        params = inspect.signature(predict).parameters
        cfg = RunConfig()
        assert (params["k"].default, params["max_changes"].default) == (cfg.k, cfg.max_changes)

    def test_atom_cap_matches_load_dataset(self, trained):
        center, ranker = trained
        too_big = "C" * (MAX_ATOMS + 1)
        with pytest.raises(ValueError, match=f"{MAX_ATOMS + 1} atoms"):
            parse_reaction_line(f"{too_big}>>C")
        with pytest.raises(ValueError, match=f"{MAX_ATOMS + 1} atoms"):
            predict(too_big, center, ranker)

    @pytest.mark.parametrize("kind, name", [("center", "wln.Win"), ("ranker", "mol.Win")])
    def test_overflowing_model_raises_without_warnings(self, kind, name):
        # 1e300 is a finite weight that loads fine, but the scores overflow
        center = CenterModel.create("local", hidden=8, depth=2, seed=3)
        ranker = RankerModel.create("wldn", hidden=8, depth=2, seed=3)
        (center if kind == "center" else ranker).store[name].values[:] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                predict("CC(=O)Cl.CN", center, ranker, k=4)

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, trained, top_n):
        center, ranker = trained
        with pytest.raises(ValueError, match=f"top_n must be at least 1, got {top_n}"):
            predict("CC(=O)Cl.CN", center, ranker, k=4, top_n=top_n)

    def test_deterministic_across_invocations(self, trained):
        center, ranker = trained
        a = predict("CC(=O)Cl.CN", center, ranker, k=4, top_n=3)
        b = predict("CC(=O)Cl.CN", center, ranker, k=4, top_n=3)
        assert [(p.smiles, p.score, p.edits) for p in a.products] == \
               [(p.smiles, p.score, p.edits) for p in b.products]

    def test_maps_assigned_when_absent(self, trained):
        center, ranker = trained
        result = predict("CCO", center, ranker, k=3, top_n=2)
        assert result.products, "expected some candidate products"
        for product in result.products:
            for u, v, _ in product.edits:
                assert 1 <= u <= 3 and 1 <= v <= 3

    def test_unmapped_input_predicts_as_through_make_graph(self, trained, monkeypatch):
        # predict numbers unmapped atoms by copying the parsed graph; the
        # outputs equal those of rebuilding it through make_graph
        center, ranker = trained
        requests = ["CCO", "CC(=O)Cl.CN", "c1ccccc1C(=O)O.[NH4+]", "C=CC=C.C=C"]

        def outputs():
            return [[(p.smiles, p.score, p.edits) for p in
                     predict(s, center, ranker, k=4, top_n=5).products] for s in requests]

        def rebuilt(g, start=1):
            atoms = [replace(a, map_number=start + i) for i, a in enumerate(g.atoms)]
            return make_graph(atoms, [(b.u, b.v, b.bond_type) for b in g.bonds])

        copied = outputs()
        monkeypatch.setattr(pipeline, "with_map_numbers", rebuilt)
        assert outputs() == copied and all(copied)

    def test_trained_on_reaction_ranked_first_after_overfit(self, tmp_path):
        lines = datagen.toy_reaction_lines(6, seed=11)
        data = tmp_path / "six.txt"
        datagen.write_lines(data, lines)
        ccfg = RunConfig(data=str(data), out=str(tmp_path / "c.ckpt"),
                         variant="local", epochs=80, lr=0.003, decay=0.98,
                         seed=0, split=(1.0, 0.0, 0.0), k=4,
                         target_train_coverage=1.0)
        train_center(ccfg)
        # ranker trained on the same center's candidate pools it will see
        rcfg = RunConfig(data=str(data), out=str(tmp_path / "r.ckpt"),
                         variant="wldn", epochs=40, lr=0.005, decay=0.98,
                         seed=0, split=(1.0, 0.0, 0.0), center=str(tmp_path / "c.ckpt"),
                         k=4, augment_truth=True, target_train_p1=1.0)
        result = train_ranker(rcfg)
        reached = max(h["train_p1"] for h in result.history)
        center = CenterModel.load(tmp_path / "c.ckpt")
        ranker = RankerModel.load(tmp_path / "r.ckpt")
        records = load_dataset(data)
        hits = 0
        for rec in records:
            out = predict(rec.raw.split(">")[0], center, ranker, k=4, top_n=1)
            if not out.products:
                continue
            m = rec.reactants.map_to_index()
            edits = EditSet.of([(m[u], m[v], BondType[b.upper()])
                                for u, v, b in out.products[0].edits])
            from rxnpred.pipeline import _ProductMatcher
            hits += int(_ProductMatcher(rec)(Candidate(edits, rec.reactants)))
        assert reached >= 0.8
        assert hits >= len(records) // 2


class TestEvaluate:
    def test_oracle_ranker_reaches_coverage(self, trained, toy_file):
        center, _ = trained
        all_records = load_dataset(toy_file)
        # the bound is achieved where enumeration can express the truth at all
        records = [r for r in all_records if len(r.true_edits) <= 3]
        assert records and len(records) < len(all_records)

        class OracleRanker:
            def score_reactions(self, reactions):
                (g, cands), = reactions
                truth = next(r.true_edits for r in all_records if r.reactants is g)
                return de.constant([[1.0 if c.edits == truth else 0.0] for c in cands])

        cfg = RunConfig(k=6, augment_truth=False)
        report = evaluate(records, center, OracleRanker(), cfg)
        assert abs(report.p_at[1] - report.coverage_at[6]) < 1e-12
        # over every record (including inexpressible truths) the bound remains
        full = evaluate(all_records, center, OracleRanker(), cfg)
        assert full.p_at[1] <= full.coverage_at[6] + 1e-12

    def test_rigged_ranks_give_expected_mrr(self, trained, toy_file):
        center, _ = trained
        records = [r for r in load_dataset(toy_file)][:3]
        targets = {id(r): rank for r, rank in zip(records, (1, 2, 4))}

        class RiggedRanker:
            def score_reactions(self, reactions):
                (g, cands), = reactions
                rec = next(r for r in records if r.reactants is g)
                target = targets[id(rec)]
                others = iter(range(1, len(cands) + 1))
                return de.constant([[-(target - 0.5) if c.edits == rec.true_edits
                                     else -float(next(others))] for c in cands])

        cfg = RunConfig(k=6, augment_truth=True)
        report = evaluate(records, center, RiggedRanker(), cfg)
        assert abs(report.mrr - (1 + 0.5 + 0.25) / 3) < 1e-12
        assert report.p_at[1] == pytest.approx(1 / 3)
        assert report.p_at[3] == pytest.approx(2 / 3)
        assert report.p_at[5] == pytest.approx(1.0)

    def test_augmentation_never_lowers_metrics(self, trained, toy_file):
        center, ranker = trained
        records = load_dataset(toy_file)
        plain = evaluate(records, center, ranker, RunConfig(k=6, augment_truth=False))
        starred = evaluate(records, center, ranker, RunConfig(k=6, augment_truth=True))
        for k in (1, 3, 5):
            assert starred.p_at[k] >= plain.p_at[k] - 1e-12
        assert starred.mrr >= plain.mrr - 1e-12

    def test_report_invariants_and_lines(self, trained, toy_file):
        center, ranker = trained
        records = load_dataset(toy_file)
        report = evaluate(records, center, ranker, RunConfig(k=6))
        assert report.p_at[1] <= report.p_at[3] <= report.p_at[5] <= 1.0
        assert report.p_at[1] <= report.mrr <= 1.0
        lines = report.lines()
        assert any(line.startswith("mrr=") for line in lines)
        assert len(report.lines(include_timing=False)) == len(lines) - 2
        assert "coverage@6" in report.table()


class TestTopKBelowMaxChanges:
    """k=2 with the default max_changes=3: enumeration caps subsets at the
    number of pairs, so every stage runs."""

    def test_evaluate_counts_what_predict_enumerates(self, trained, toy_file):
        center, ranker = trained
        records = load_dataset(toy_file)
        assert evaluate(records, center, ranker, RunConfig(k=2)).n_records == len(records)
        for rec in records:
            reactants, reagents, _ = rec.raw.split(">")
            smiles = reactants + ("." + reagents if reagents else "")
            report = evaluate([rec], center, ranker, RunConfig(k=2))
            assert report.avg_candidates == predict(smiles, center, ranker, k=2).n_candidates

    def test_train_ranker_on_center_pairs(self, trained, toy_file, tmp_path):
        center, _ = trained
        center.save(tmp_path / "c.ckpt")
        out = tmp_path / "r.ckpt"
        result = train_ranker(RunConfig(data=str(toy_file), out=str(out), variant="wln",
                                        epochs=2, hidden=8, depth=2, seed=0, k=2,
                                        split=(1.0, 0.0, 0.0), center=str(tmp_path / "c.ckpt"),
                                        augment_truth=True))
        assert len(result.history) == 2
        assert RankerModel.load(out).store.metadata["k"] == "2"


class TestEpochLogs:
    def test_one_record_per_epoch_with_a_literal_prefix(self, toy_file, tmp_path, caplog):
        common = dict(data=str(toy_file), epochs=2, hidden=8, depth=2, seed=0,
                      split=(1.0, 0.0, 0.0))
        with caplog.at_level(logging.INFO, logger="rxnpred.pipeline"):
            train_center(RunConfig(out=str(tmp_path / "c.ckpt"), variant="local", **common))
            train_ranker(RunConfig(out=str(tmp_path / "r.ckpt"), variant="wldn",
                                   center="oracle", augment_truth=True, **common))
        epochs = [r for r in caplog.records if " epoch " in r.getMessage()]
        assert all(r.levelno == logging.INFO for r in epochs)
        # the unformatted message carries the prefix, ahead of any argument
        assert [str(r.msg)[:13] for r in epochs] == ["center epoch "] * 2 + ["ranker epoch "] * 2


class TestBatchedMetrics:
    """The per-epoch metrics and candidate building score their records in
    batched passes, which give what the per-record loops give; a budget of
    40 atoms cuts these records into several passes."""

    @pytest.fixture(scope="class")
    def records(self):
        lines = datagen.toy_reaction_lines(10, seed=9) + datagen.reagent_fixture_lines(4, seed=9)
        return [parse_reaction_line(line) for line in lines]

    @pytest.mark.parametrize("budget", [MAX_BATCH_ATOMS, 40])
    @pytest.mark.parametrize("variant", ["local", "global"])
    def test_center_passes_equal_the_per_record_loop(self, records, variant, budget,
                                                     monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_BATCH_ATOMS", budget)
        model = CenterModel.create(variant, hidden=8, depth=2, seed=4)
        loop = [model.score_matrix(rec.reactants) for rec in records]
        got = pipeline._center_matrices(model, records)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in loop]
        for k in (1, 3, 6):
            hits = sum(coverage(top_k_pairs(m, k), rec.true_edits)
                       for rec, m in zip(records, loop))
            assert pipeline._center_coverage(model, records, k) == hits / len(records)
        cfg = RunConfig(k=4, max_changes=2, augment_truth=True)
        want = []
        for rec, m in zip(records, loop):
            cands, _, idx = pipeline._candidate_stage(rec.reactants, top_k_pairs(m, 4),
                                                      cfg.max_changes, rec.true_edits, True)
            want.append((rec.raw, [c.edits for c in cands], idx))
        got = [(inst.record.raw, [c.edits for c in inst.candidates], inst.true_index)
               for inst in pipeline._build_instances(records, model, cfg)]
        assert got == want

    @pytest.mark.parametrize("budget", [MAX_BATCH_ATOMS, 40])
    @pytest.mark.parametrize("variant", ["wln", "wldn"])
    def test_ranker_pass_equals_the_per_record_loop(self, records, variant, budget,
                                                    monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_BATCH_ATOMS", budget)
        instances = pipeline._build_instances(records, None, RunConfig(augment_truth=True))
        model = RankerModel.create(variant, hidden=8, depth=2, seed=4)
        loop = [rank_candidates(inst.record.reactants, inst.candidates, model)
                for inst in instances]
        want = [[(c.edits, float.hex(c.score)) for c in order] for order in loop]
        hits = sum(pipeline._ProductMatcher(inst.record)(order[0])
                   for inst, order in zip(instances, loop))
        ranked = rank_reactions([(inst.record.reactants, inst.candidates)
                                 for inst in instances], model)
        assert [[(c.edits, float.hex(c.score)) for c in order] for order in ranked] == want
        assert pipeline._ranker_p1(model, instances) == hits / len(instances)

    def test_non_finite_score_raises_as_rank_candidates(self, records):
        instances = pipeline._build_instances(records, None, RunConfig(augment_truth=True))
        model = RankerModel.create("wldn", hidden=8, depth=2, seed=4)
        model.store["mol.Win"].values[:] = 1e300
        first = instances[0]
        with pytest.raises(ValueError) as alone:
            rank_candidates(first.record.reactants, first.candidates, model)
        with pytest.raises(ValueError) as batched:
            pipeline._ranker_p1(model, instances)
        assert str(batched.value) == str(alone.value)
        assert str(alone.value).startswith("rank_candidates: non-finite score")
