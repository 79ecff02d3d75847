"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured value next to its threshold.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from rxnpred import datagen
from rxnpred import diffengine as de
from rxnpred.candgen import Candidate, EditSet, enumerate_candidates
from rxnpred.center import center_loss, upper_pairs
from rxnpred.chemgraph import BondType, parse_smiles
from rxnpred.pipeline import (RunConfig, evaluate, load_dataset, train_center,
                              train_ranker)
from rxnpred.ranker import RankerModel
from rxnpred.selfcheck import (brute_force_enumerate, comparison_form_suite,
                               gradient_suite, wl_soundness_suite)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "toy50.txt"
    datagen.write_lines(path, datagen.toy_reaction_lines(50, seed=7))
    return str(path)


def test_criterion_01_wl_soundness():
    result = wl_soundness_suite(seed=11)
    _report(1, "wl-soundness", result.passed, result.detail)


def test_criterion_02_gradient_fidelity():
    start = time.perf_counter()
    results = gradient_suite(seed=5)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 60.0
    detail = ", ".join(f"{r.name} {r.detail}" for r in results) + f"; {elapsed:.1f}s"
    _report(2, "gradient-fidelity", ok, detail)


def test_criterion_03_comparison_form_equivalence():
    result = comparison_form_suite(seed=3)
    _report(3, "equation-form-equivalence", result.passed, result.detail)


def test_criterion_04_enumeration_oracle():
    rng = np.random.default_rng(9)
    mismatches = 0
    done = 0
    while done < 20:
        g = datagen.random_molecule(rng, n_atoms=int(rng.integers(3, 9)))
        n = g.n_atoms
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if not pool:
            continue
        k = int(rng.integers(1, min(4, len(pool)) + 1))
        pairs = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
        fast = {c.edits for c in enumerate_candidates(g, pairs, min(3, k), 10 ** 6)}
        slow = brute_force_enumerate(g, pairs, min(3, k))
        mismatches += int(fast != slow)
        done += 1
    _report(4, "enumeration-oracle", mismatches == 0,
            f"{mismatches} mismatches over 20 instances")


def test_criterion_05_coverage_link():
    rng = np.random.default_rng(13)
    from rxnpred.pipeline import parse_reaction_line
    checked = 0
    misses = 0
    while checked < 30:
        try:
            rec = parse_reaction_line(datagen.random_reaction_line(rng))
        except ValueError:
            continue
        if len(rec.true_edits) > 3:
            continue
        if rec.true_edits not in brute_force_enumerate(
                rec.reactants, list(rec.true_edits.pairs), 3):
            continue  # filtered truths are exempt by construction
        pairs = list(rec.true_edits.pairs)
        pairs += [(u, u + 1) for u in range(min(2, rec.reactants.n_atoms - 1))]
        result = enumerate_candidates(rec.reactants, pairs[:6], 3, 10 ** 5)
        misses += int(rec.true_edits not in {c.edits for c in result})
        checked += 1
    _report(5, "coverage-link", misses == 0,
            f"{misses} misses over {checked} eligible synthetic reactions")


def test_criterion_06_center_overfit(toy_file, tmp_path):
    cfg = RunConfig(data=toy_file, out=str(tmp_path / "center.ckpt"),
                    variant="local", hidden=64, depth=3, epochs=300, batch=1,
                    lr=0.003, decay=0.97, seed=0, split=(1.0, 0.0, 0.0), k=6,
                    target_train_coverage=0.95)
    start = time.perf_counter()
    result = train_center(cfg)
    best = max(h["train_coverage"] for h in result.history)
    elapsed = time.perf_counter() - start
    ok = best >= 0.95 and len(result.history) <= 300
    detail = (f"local train coverage@6 {best:.3f} after {len(result.history)} "
              f"epochs in {elapsed:.0f}s")

    # reagent-dependence fixture: the global model must match or beat local
    fixture = tmp_path / "reagent.txt"
    datagen.write_lines(fixture, datagen.reagent_fixture_lines(12, seed=0))
    scores = {}
    for variant in ("local", "global"):
        rcfg = RunConfig(data=str(fixture), out=str(tmp_path / f"{variant}.ckpt"),
                         variant=variant, hidden=64, depth=3, epochs=60, batch=1,
                         lr=0.003, decay=0.99, seed=0, split=(1.0, 0.0, 0.0),
                         k=1, target_train_coverage=1.0)
        run = train_center(rcfg)
        scores[variant] = max(h["train_coverage"] for h in run.history)
    ok = ok and scores["global"] >= scores["local"]
    detail += (f"; reagent fixture coverage@1 global {scores['global']:.2f} "
               f"vs local {scores['local']:.2f}")
    _report(6, "center-overfit", ok, detail)


def test_criterion_07_ranker_overfit(toy_file, tmp_path):
    cfg = RunConfig(data=toy_file, out=str(tmp_path / "wldn.ckpt"),
                    variant="wldn", hidden=64, depth=3, epochs=300, batch=1,
                    lr=0.003, decay=0.97, seed=0, split=(1.0, 0.0, 0.0),
                    center="oracle", augment_truth=True, target_train_p1=0.90)
    start = time.perf_counter()
    result = train_ranker(cfg)
    best = max(h["train_p1"] for h in result.history)
    elapsed = time.perf_counter() - start
    ok = best >= 0.90 and len(result.history) <= 300
    detail = (f"wldn train P@1 {best:.3f} after {len(result.history)} epochs "
              f"in {elapsed:.0f}s")

    fixture = tmp_path / "higher_order.txt"
    datagen.write_lines(fixture, datagen.higher_order_fixture_lines(30, seed=1))
    scores = {}
    for variant in ("wldn", "wln"):
        rcfg = RunConfig(data=str(fixture), out=str(tmp_path / f"{variant}.ckpt"),
                         variant=variant, hidden=64, depth=3, epochs=25, batch=1,
                         lr=0.003, decay=0.97, seed=0, split=(1.0, 0.0, 0.0),
                         center="oracle", augment_truth=True, target_train_p1=1.0)
        run = train_ranker(rcfg)
        scores[variant] = max(h["train_p1"] for h in run.history)
    ok = ok and scores["wldn"] >= scores["wln"]
    detail += (f"; higher-order fixture P@1 wldn {scores['wldn']:.2f} "
               f"vs wln {scores['wln']:.2f}")
    _report(7, "ranker-overfit", ok, detail)


def test_criterion_08_candidate_generation_latency():
    rng = np.random.default_rng(2)
    times = []
    for _ in range(30):
        g = datagen.random_molecule(rng, n_atoms=50, allow_curated=False)
        cluster = rng.choice(g.n_atoms, size=5, replace=False)
        pairs = []
        for i in range(5):
            for j in range(i + 1, 5):
                pairs.append((int(min(cluster[i], cluster[j])),
                              int(max(cluster[i], cluster[j]))))
        start = time.perf_counter()
        enumerate_candidates(g, pairs[:8], 3, 2000)
        times.append((time.perf_counter() - start) * 1000.0)
    median = float(np.median(times))
    _report(8, "candgen-latency", median < 50.0,
            f"median {median:.2f} ms (p95 {np.percentile(times, 95):.2f} ms) "
            f"on 50-atom reactants at K=8")


def test_criterion_09_analytic_identities():
    n = 6
    n_pairs = n * (n - 1) // 2
    truth = EditSet.of([(0, 3, BondType.SINGLE)])
    loss = center_loss(de.constant(np.full((n_pairs, 1), 0.5)), upper_pairs(n), truth).item()
    ok1 = abs(loss - n_pairs * math.log(2)) < 1e-12

    oks = []
    for m in (0, 2, 5):
        scores = de.constant(np.full((m + 1, 1), 1.7))
        oks.append(abs(de.softmax_logloss(scores, [(0, m + 1)]).item() - math.log(m + 1)) < 1e-12)
    ok2 = all(oks)

    g = parse_smiles("CC(=O)c1ccccc1.OC")
    identity = Candidate(EditSet.of([]), g)
    deviations = []
    for variant in ("wln", "wldn"):
        model = RankerModel.create(variant, hidden=16, depth=3, seed=21)
        deviations.append(abs(model.score_reactions([(g, [identity])]).item()))
    ok3 = all(d < 1e-12 for d in deviations)

    _report(9, "analytic-identities", ok1 and ok2 and ok3,
            f"uniform center loss err {abs(loss - n_pairs * math.log(2)):.1e}; "
            f"uniform rank loss ok {ok2}; identity scores {deviations}")


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "det.txt"
    datagen.write_lines(data, datagen.toy_reaction_lines(20, seed=7))

    def run(tag: str):
        from rxnpred.center import CenterModel
        center_path = tmp_path / f"center-{tag}.ckpt"
        ranker_path = tmp_path / f"ranker-{tag}.ckpt"
        train_center(RunConfig(data=str(data), out=str(center_path),
                               variant="global", epochs=4, lr=0.003, decay=0.9,
                               seed=3, split=(1.0, 0.0, 0.0)))
        train_ranker(RunConfig(data=str(data), out=str(ranker_path),
                               variant="wldn", epochs=3, lr=0.003, decay=0.9,
                               seed=3, split=(1.0, 0.0, 0.0), center="oracle",
                               augment_truth=True))
        records = load_dataset(data)
        report = evaluate(records, CenterModel.load(center_path),
                          RankerModel.load(ranker_path), RunConfig(k=6))
        return (center_path.read_bytes(), ranker_path.read_bytes(),
                "\n".join(report.lines(include_timing=False)))

    first = run("a")
    second = run("b")
    ok = first == second
    _report(10, "determinism", ok,
            "two identically seeded runs produced bitwise-identical "
            "checkpoints and reports" if ok else "runs diverged")


def test_criterion_11_large_scale_note():
    # Large-scale coverage targets need the full patent reaction corpus and
    # long training runs; they are a stretch goal, not a gated criterion.
    print("[SKIP] criterion 11 (large-scale benchmark): stretch target only; "
          "see the benchmarks section of the README for how to run it")
