"""Workloads of the rxnpred benchmark and the code that runs them.

Every workload is one user's run through the public API: generate data
with ``rxnpred.datagen``, load it, train a center model and a ranker
(``pipeline.train_center`` / ``pipeline.train_ranker``), reload the
checkpoints, then serve ``pipeline.predict`` per record and
``pipeline.evaluate`` over the records, two to a call. One client, closed
loop: each request is sent when the previous one has returned. The
workloads differ in which layer they load. Shares are of ``predict`` time;
"earlier" is a baseline measured on this code before the benchmark existed,
"here" is this benchmark's traced run (2 cores, Python 3.11, numpy 2.4):

* ``small-serve`` -- toy records (at most 16 atoms), ``local`` center, K=6.
  The ranker/overhead workload. Earlier: ranker 94%, enumeration 4%, center 1%;
  about 52 candidates, 3.6k diffengine ops and 92 MFLOP per request. Here:
  ranker 94%, enumeration 4%, center 1%; 72 candidates, 5.2k op calls
  (constants included), 97 MFLOP and 851 atoms embedded per request.
  Batching the ranker shows here; center work should not.
* ``large-serve`` -- the same kind of record plus unmapped spectator molecules
  in the reagent field, 50 to 150 atoms in total, ``global`` center, K=8.
  The center and locality workload. Earlier: center 42%, ranker 49%,
  enumeration 5%, top-K 2%; 874 MFLOP and about 4.5k atoms embedded per
  request. Here: center 31%, ranker 64%, enumeration 4%; 19 candidates,
  755 MFLOP and 3.8k atoms embedded per request. The vectorized center/top-K
  and a local ranker show here. The toy-trained center never saw
  spectators, so P@1 and coverage sit near the floor: they are a
  determinism tripwire on this workload, not a quality target.

Both workloads also train their models (backward passes and Adam on the
same wln/diffengine code), so an inference-only speedup that costs training
shows in ``center_epoch_s`` and ``ranker_epoch_s``. A separate ``train``
workload (the paper's protocol: a ranker on candidates from a trained center,
15-18 s per ranker epoch on 60 records) is left out: its epochs would make
every run several times longer than the serve workloads need to be steady.

The record pools and the training corpus come from fixed datagen seeds:
drawn afresh per ``--seed``, per-request work moves by about 13% from seed
to seed (quartile spread of the median candidate count over ten seeds, 200
records), which would hide any regression smaller than that. ``--seed``
orders the requests. All training uses model seed 0.

A timed run trains three times and serves passes over the pool after each
training until its third of ``--seconds`` is up. Each timing is the best
sample per request, per evaluate call and per epoch (set-up: the median),
because a shared 2-core virtual machine's speed drifts by tens of percent
over seconds. Every pass and training must repeat the first one exactly.
"""

from __future__ import annotations

import logging
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rxnpred import datagen, pipeline
from rxnpred.center import CenterModel
from rxnpred.chemgraph import parse_smiles, write_smiles
from rxnpred.pipeline import RunConfig
from rxnpred.ranker import RankerModel
from rxnpred.wliso import wl_fingerprint

from tracing import OP_KINDS, Tracer

CORPUS_SEED = 7      # training corpus (the README quickstart's seed)
POOL_SEED = 8        # served records
LR, DECAY = 0.003, 0.97
SETUP_REPEATS = 5     # per training round
ROUNDS = 3            # trainings per timed run
EVAL_CHUNK = 2        # records per evaluate call
SPECTATOR_ATOMS = (50, 150)   # large-serve record size, reactants included
SIZE_BUCKETS = (50, 75, 100, 125, 151)


@dataclass(frozen=True)
class Workload:
    name: str
    center_variant: str       # "local" | "global"
    k: int
    pool: str                 # "toy" | "spectator"
    pool_n: int
    corpus_n: int
    center_epochs: int
    ranker_epochs: int


WORKLOADS = {
    "small-serve": Workload("small-serve", "local", 6, "toy", 20, 40, 6, 6),
    "large-serve": Workload("large-serve", "global", 8, "spectator", 8, 40, 6, 6),
}

END_TO_END = {
    "setup_s": "s", "predict_ms_p50": "ms", "evaluate_rps": "1/s",
    "center_epoch_s": "s", "ranker_epoch_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pipeline.p_at_1": "share", "center.coverage_at_k": "share",
    "pipeline.load_dataset_ms": "ms",
    "pipeline.predict_covered_share": "share",
    "center.score_ms": "ms", "center.pairs_scored": "count",
    "center.top_k_ms": "ms", "center.top_k_calls": "count",
    "center.predict_share": "share",
    "candgen.enumerate_ms": "ms", "candgen.candidates": "count",
    "candgen.truncated_share": "share", "candgen.distinct_share": "share",
    "candgen.predict_share": "share",
    "chemgraph.apply_edits_calls": "count", "chemgraph.apply_edits_ms": "ms",
    "ranker.rank_ms": "ms", "ranker.candidates_scored": "count",
    "ranker.ms_per_candidate": "ms", "ranker.predict_share": "share",
    "wln.embed_calls": "count", "wln.atoms_embedded": "count", "wln.embed_ms": "ms",
    **{f"diffengine.ops.{kind}": "count" for kind in OP_KINDS},
    "diffengine.matmul_mflop": "MFLOP",
    "diffengine.backward_ms": "ms", "diffengine.adam_ms": "ms",
    "diffengine.train_ops": "count",
    "wliso.wl_equivalent_calls": "count", "wliso.wl_equivalent_ms": "ms",
    "trace.overhead_s": "s", "trace.overhead_share": "share",
}


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def spectator_reaction_lines(n: int, seed: int) -> list[str]:
    """Toy reactions with unmapped spectator molecules in the reagent field,
    ``SPECTATOR_ATOMS`` atoms per record in total.

    Built only from public datagen/chemgraph functions. Spectators with
    valence warnings are skipped: a pre-existing violation would make the
    enumerator reject every candidate of the record.
    """
    rng = np.random.default_rng(seed)
    min_atoms, max_atoms = SPECTATOR_ATOMS
    lines: list[str] = []
    while len(lines) < n:
        reactants, _, product = datagen.random_reaction_line(rng).split(">")
        size = parse_smiles(reactants).n_atoms
        target = int(rng.integers(min_atoms, max_atoms + 1))
        spectators: list[str] = []
        misses = 0
        while size < target and misses < 50:
            mol = datagen.random_molecule(rng)
            if mol.valence_warnings or size + mol.n_atoms > target:
                misses += 1
                continue
            spectators.append(write_smiles(mol))
            size += mol.n_atoms
        if min_atoms <= size <= max_atoms:
            lines.append(f"{reactants}>{'.'.join(spectators)}>{product}")
    return lines


def pool_lines(w: Workload, seed: int) -> list[str]:
    if w.pool == "toy":
        lines = datagen.toy_reaction_lines(w.pool_n, POOL_SEED)
    else:
        lines = spectator_reaction_lines(w.pool_n, POOL_SEED)
    order = np.random.default_rng(seed).permutation(len(lines))
    return [lines[i] for i in order]


def request_smiles(line: str) -> str:
    """The reactant string ``load_dataset`` parses: reactants plus reagents."""
    reactants, reagents, _ = line.split(">")
    return reactants + ("." + reagents if reagents else "")


def load_checked(path: Path, n_lines: int) -> list:
    records = pipeline.load_dataset(path)
    if len(records) != n_lines:
        raise RuntimeError(f"{path}: load_dataset skipped {n_lines - len(records)} "
                           f"of {n_lines} generated records")
    return records


def set_up(w: Workload, seed: int, work: Path) -> list:
    """Generate and load the corpus and the request pool."""
    corpus = datagen.toy_reaction_lines(w.corpus_n, CORPUS_SEED)
    pool = pool_lines(w, seed)
    datagen.write_lines(work / "corpus.txt", corpus)
    datagen.write_lines(work / "pool.txt", pool)
    load_checked(work / "corpus.txt", len(corpus))
    return load_checked(work / "pool.txt", len(pool))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class EpochClock(logging.Handler):
    """Stamps the per-epoch log records the train loops emit."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.stamps: dict[str, list[float]] = {"center": [], "ranker": []}

    def emit(self, record: logging.LogRecord) -> None:
        for model, stamps in self.stamps.items():
            if str(record.msg).startswith(model + " epoch "):
                stamps.append(time.perf_counter())

    def reset(self) -> None:
        for stamps in self.stamps.values():
            stamps.clear()

    def epoch_seconds(self, model: str) -> list[float]:
        """Gaps between consecutive epoch records: every epoch but the first,
        so data loading and candidate building are excluded."""
        s = self.stamps[model]
        return [b - a for a, b in zip(s, s[1:])]


@dataclass
class Trained:
    center_path: Path
    ranker_path: Path
    losses: list[float]


def train(w: Workload, work: Path, tag: str) -> Trained:
    corpus = str(work / "corpus.txt")
    center_path = work / f"center-{tag}.ckpt"
    ranker_path = work / f"ranker-{tag}.ckpt"
    common = dict(data=corpus, lr=LR, decay=DECAY, split=(1.0, 0.0, 0.0), k=w.k)
    c = pipeline.train_center(RunConfig(out=str(center_path), variant=w.center_variant,
                                        epochs=w.center_epochs, **common))
    # The ranker learns on oracle centers with the truth inserted, as in the
    # README quickstart: cheap enough to train three times per run.
    r = pipeline.train_ranker(RunConfig(
        out=str(ranker_path), variant="wldn", epochs=w.ranker_epochs,
        center="oracle", augment_truth=True, **common))
    losses = [h["loss"] for h in c.history + r.history]
    return Trained(center_path, ranker_path, losses)


def reload_models(t: Trained) -> tuple[CenterModel, RankerModel]:
    return CenterModel.load(t.center_path), RankerModel.load(t.ranker_path)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

@contextmanager
def captured_rankings():
    """Collect what ``evaluate`` ranks, keyed by the record's reactant graph.

    One extra Python call per evaluated record; it returns the same list.
    """
    original = pipeline.rank_candidates
    seen: dict[int, list] = {}

    def capture(reactants, candidates, model, *args, **kwargs):
        ranked = original(reactants, candidates, model, *args, **kwargs)
        seen[id(reactants)] = ranked
        return ranked

    pipeline.rank_candidates = capture
    try:
        yield seen
    finally:
        pipeline.rank_candidates = original


@dataclass
class Pass:
    predictions: list          # PredictResult, or None where predict raised
    latencies_ms: list[float]  # per record
    reports: list              # EvalReport per evaluate chunk, None where it raised
    chunk_s: list[float]       # evaluate wall time per chunk
    mismatches: int            # records whose top predict product != evaluate's
    failed: int

    def lines(self) -> list:
        return [r.lines(include_timing=False) if r else None for r in self.reports]


def chunked(records: list) -> list[list]:
    return [records[i:i + EVAL_CHUNK] for i in range(0, len(records), EVAL_CHUNK)]


def serve_pass(w: Workload, records: list, center_m, ranker_m) -> Pass:
    """``predict`` per record, then ``evaluate`` over the records in chunks."""
    predictions, latencies, failed = [], [], 0
    for rec in records:
        smiles = request_smiles(rec.raw)
        t0 = time.perf_counter()
        try:
            res = pipeline.predict(smiles, center_m, ranker_m, k=w.k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = None
        latencies.append((time.perf_counter() - t0) * 1000.0)
        predictions.append(res)
        failed += int(res is None or not res.products)
    reports, chunk_s, mismatches = [], [], 0
    with captured_rankings() as ranked:
        for chunk in chunked(records):
            t0 = time.perf_counter()
            try:
                report = pipeline.evaluate(chunk, center_m, ranker_m, RunConfig(k=w.k))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                report = None
                failed += len(chunk)
            chunk_s.append(time.perf_counter() - t0)
            reports.append(report)
    for chunk, report in zip(chunked(list(zip(records, predictions))), reports):
        if report is not None:
            mismatches += sum(not _same_top(rec, res, ranked.get(id(rec.reactants)))
                              for rec, res in chunk if res is not None and res.products)
    return Pass(predictions, latencies, reports, chunk_s, mismatches, failed)


def _same_top(rec, res, ranked) -> bool:
    """predict's best product is evaluate's top-ranked candidate: same score,
    same edits (predict names atoms by map number, or index + 1 when the
    input has unmapped atoms)."""
    if not ranked:
        return False
    top = ranked[0]
    renumbered = any(a.map_number is None for a in rec.reactants.atoms)
    atoms = rec.reactants.atoms

    def name(i: int) -> int:
        return i + 1 if renumbered else atoms[i].map_number

    edits = [(name(e.u), name(e.v), e.bond_type.name.lower()) for e in top.edits]
    best = res.products[0]
    return best.score == top.score and best.edits == edits


def prediction_key(res) -> tuple | None:
    if res is None:
        return None
    return (res.n_candidates, res.truncated, tuple(res.top_pairs),
            tuple((p.smiles, p.score, tuple(p.edits)) for p in res.products))


def same_outputs(a: Pass, b: Pass) -> bool:
    return (a.lines() == b.lines() and [prediction_key(r) for r in a.predictions]
            == [prediction_key(r) for r in b.predictions])


def quality(p: Pass, w: Workload) -> tuple[float, float]:
    """P@1 and coverage@K over all records, summed from the chunk reports."""
    hits = cover = n = 0
    for report in p.reports:
        if report is not None:
            hits += round(report.p_at[1] * report.n_records)
            cover += round(report.coverage_at[w.k] * report.n_records)
            n += report.n_records
    return (hits / n, cover / n) if n else (0.0, 0.0)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]]   # name -> (value, unit, samples)
    attempted: int
    failed: int
    checks: dict[str, bool]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        trace_path: Path | None = None) -> Result:
    """Run one workload; the end-to-end metrics, or with ``trace`` the
    per-layer ones."""
    log = logging.getLogger("rxnpred")
    saved = log.level, log.propagate
    log.setLevel(logging.INFO)
    log.propagate = False  # keeps the per-epoch records off the console
    clock = EpochClock()
    log.addHandler(clock)
    try:
        if trace:
            return _run_traced(w, seed, work, clock, trace_path)
        return _run_timed(w, seed, seconds, work, clock)
    finally:
        log.removeHandler(clock)
        log.level, log.propagate = saved


def _checkpoint_bytes_stable(t: Trained, work: Path) -> bool:
    ok = True
    for model_cls, path in ((CenterModel, t.center_path), (RankerModel, t.ranker_path)):
        copy = work / (path.name + ".resaved")
        model_cls.load(path).save(copy)
        ok &= copy.read_bytes() == path.read_bytes()
    return ok


def _checkpoints(t: Trained) -> tuple[bytes, bytes]:
    return t.center_path.read_bytes(), t.ranker_path.read_bytes()


@dataclass
class Round:
    sizes: list[int]           # reactant atoms per served record
    setup_s: list[float]
    center_epochs: list[float]
    ranker_epochs: list[float]
    trained: Trained
    passes: list[Pass]


def _round(w: Workload, seed: int, work: Path, clock: EpochClock, tag: str,
           deadline: float) -> Round:
    """Set up, train and reload once, then serve passes until ``deadline``
    (at least one). Set-up is repeated and timed: data generation plus
    loading, and checkpoint reload."""
    data_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        records = set_up(w, seed, work)
        data_s.append(time.perf_counter() - t0)
    clock.reset()
    trained = train(w, work, tag)
    center_epochs = clock.epoch_seconds("center")
    ranker_epochs = clock.epoch_seconds("ranker")
    reload_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        center_m, ranker_m = reload_models(trained)
        reload_s.append(time.perf_counter() - t0)
    pipeline.predict(request_smiles(records[0].raw), center_m, ranker_m, k=w.k)  # warm-up
    passes = [serve_pass(w, records, center_m, ranker_m)]
    while time.perf_counter() < deadline:
        passes.append(serve_pass(w, records, center_m, ranker_m))
    return Round([rec.reactants.n_atoms for rec in records],
                 [a + b for a, b in zip(data_s, reload_s)], center_epochs, ranker_epochs,
                 trained, passes)


def _run_timed(w: Workload, seed: int, seconds: float, work: Path,
               clock: EpochClock) -> Result:
    # A shared machine's speed drifts by tens of percent over seconds, so every
    # timing is the best of several samples spread over the run (set-up: the
    # median): rounds of training, each followed by serve passes until its
    # share of the time is up.
    t_start = time.perf_counter()
    rounds = [_round(w, seed, work, clock, f"r{i}", t_start + seconds * (i + 1) / ROUNDS)
              for i in range(ROUNDS)]
    passes = [p for r in rounds for p in r.passes]

    first = passes[0]
    n = len(first.latencies_ms)
    best_latency = [min(p.latencies_ms[i] for p in passes) for i in range(n)]
    best_chunks = [min(p.chunk_s[i] for p in passes) for i in range(len(first.chunk_s))]
    setup = [x for r in rounds for x in r.setup_s]
    center_epochs = [x for r in rounds for x in r.center_epochs]
    ranker_epochs = [x for r in rounds for x in r.ranker_epochs]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "predict_ms_p50": (float(np.percentile(best_latency, 50)), "ms", n * len(passes)),
        "evaluate_rps": (n / sum(best_chunks), "1/s", n * len(passes)),
        "center_epoch_s": (min(center_epochs), "s", len(center_epochs)),
        "ranker_epoch_s": (min(ranker_epochs), "s", len(ranker_epochs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    trained = rounds[0].trained
    checks = {
        "losses_finite": all(math.isfinite(x) for r in rounds for x in r.trained.losses),
        "checkpoint_bytes_stable": _checkpoint_bytes_stable(trained, work),
        "training_repeats_exactly": all(
            r.trained.losses == trained.losses
            and _checkpoints(r.trained) == _checkpoints(trained) for r in rounds),
        "evaluate_completed": all(rep is not None for p in passes for rep in p.reports),
        "predict_top_matches_evaluate": all(p.mismatches == 0 for p in passes),
        "passes_repeat_exactly": all(same_outputs(first, p) for p in passes),
    }
    failed = sum(p.failed for p in passes)
    attempted = len(passes) * 2 * n + len(rounds) * (w.center_epochs + w.ranker_epochs)
    p_at_1, coverage_at_k = quality(first, w)
    raw = [x for p in passes for x in p.latencies_ms]
    notes = [f"{len(rounds)} trainings, {len(passes)} serve passes; timings are the best "
             f"per request, evaluate chunk and epoch",
             f"failed_share {failed / attempted:.4f} share (n={attempted})",
             f"p_at_1 {p_at_1:.6f} coverage_at_k {coverage_at_k:.6f} share "
             f"(n={n}; deterministic, must repeat exactly)"]
    if len(raw) >= 100:
        notes.append(f"predict_ms_p90 {np.percentile(raw, 90):.3f} ms over all passes "
                     f"(n={len(raw)})")
    else:
        notes.append(f"predict_ms_p90 not reported: {len(raw)} requests, needs 100")
    notes += size_buckets(rounds[0].sizes, best_latency)
    return Result(metrics, attempted, failed, checks, notes)


def size_buckets(sizes: list[int], latencies_ms: list[float]) -> list[str]:
    """Request count and predict p50 per reactant-size bucket."""
    out = [f"reactant atoms: min {min(sizes)} median {statistics.median(sizes):g} "
           f"max {max(sizes)}"]
    for lo, hi in zip(SIZE_BUCKETS, SIZE_BUCKETS[1:]):
        lat = [x for s, x in zip(sizes, latencies_ms) if lo <= s < hi]
        if lat:
            out.append(f"  atoms {lo}-{hi - 1}: {len(lat)} records, "
                       f"predict p50 {np.percentile(lat, 50):.1f} ms")
    return out


def _run_traced(w: Workload, seed: int, work: Path, clock: EpochClock,
                trace_path: Path | None) -> Result:
    setup_tracer = Tracer()
    with setup_tracer.installed():
        records = set_up(w, seed, work)

    plain = train(w, work, "plain")
    train_tracer = Tracer()
    with train_tracer.installed():
        traced = train(w, work, "traced")
    center_m, ranker_m = reload_models(plain)

    pipeline.predict(request_smiles(records[0].raw), center_m, ranker_m, k=w.k)  # warm-up
    # Untraced, traced, traced, untraced: a linear drift of the machine's speed
    # cancels out of the overhead.
    base = serve_pass(w, records, center_m, ranker_m)
    serve_tracer = Tracer()
    with serve_tracer.installed():
        observed = serve_pass(w, records, center_m, ranker_m)
    with Tracer().installed():
        observed_again = serve_pass(w, records, center_m, ranker_m)
    base_again = serve_pass(w, records, center_m, ranker_m)
    passes = (base, observed, observed_again, base_again)

    checks = {
        "losses_finite": all(math.isfinite(x) for x in plain.losses + traced.losses),
        "traced_losses_equal": plain.losses == traced.losses,
        "traced_checkpoints_equal": _checkpoints(plain) == _checkpoints(traced),
        "checkpoint_bytes_stable": _checkpoint_bytes_stable(plain, work),
        "evaluate_completed": all(rep is not None for p in passes for rep in p.reports),
        "predict_top_matches_evaluate": all(p.mismatches == 0 for p in passes),
        "traced_outputs_equal": all(same_outputs(base, p) for p in passes[1:]),
    }
    metrics = layer_metrics(setup_tracer, train_tracer, serve_tracer)
    untraced_s = best_total_s(base, base_again)
    overhead = best_total_s(observed, observed_again) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s", 2)
    metrics["trace.overhead_share"] = (overhead / untraced_s, "share", 2)
    p_at_1, coverage_at_k = quality(base, w)
    metrics["pipeline.p_at_1"] = (p_at_1, "share", len(records))
    metrics["center.coverage_at_k"] = (coverage_at_k, "share", len(records))
    if trace_path is not None:
        for tracer, phase in ((setup_tracer, "setup"), (train_tracer, "train"),
                              (serve_tracer, "serve")):
            tracer.write_jsonl(trace_path.with_name(f"{trace_path.stem}-{phase}.jsonl"))
    failed = sum(p.failed for p in passes)
    attempted = len(passes) * 2 * len(records) + 2 * (w.center_epochs + w.ranker_epochs)
    notes = [f"traced spans: setup {len(setup_tracer.spans)}, train "
             f"{len(train_tracer.spans)}, serve {len(serve_tracer.spans)}"]
    return Result(metrics, attempted, failed, checks, notes)


def best_total_s(a: Pass, b: Pass) -> float:
    """Serve time summed over requests and evaluate chunks, each the faster
    of the two passes."""
    return (sum(map(min, a.latencies_ms, b.latencies_ms)) / 1000.0
            + sum(map(min, a.chunk_s, b.chunk_s)))


def layer_metrics(setup: Tracer, train_t: Tracer, serve: Tracer) -> dict:
    out: dict[str, tuple[float, str, int]] = {}

    loads = [sp.end - sp.start for sp in setup.spans if sp.name == "pipeline.load_dataset"]
    out["pipeline.load_dataset_ms"] = (1000.0 * statistics.fmean(loads), "ms", len(loads))

    # Serve side, per predict request: self time and calls per span name.
    predicts = set(serve.requests_of("predict"))
    n = len(predicts)
    own = serve.self_times()
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, sp in enumerate(serve.spans):
        if sp.request in predicts:
            self_ms[sp.name] = self_ms.get(sp.name, 0.0) + 1000.0 * own[i]
            calls[sp.name] = calls.get(sp.name, 0) + 1

    def per_request(name: str, unit: str, value: float) -> None:
        out[name] = (value / n, unit, n)

    for name, span in (("center.score_ms", "center.score"), ("center.top_k_ms", "center.top_k"),
                       ("candgen.enumerate_ms", "candgen.enumerate"),
                       ("chemgraph.apply_edits_ms", "chemgraph.apply_edits"),
                       ("ranker.rank_ms", "ranker.rank"), ("wln.embed_ms", "wln.embed")):
        per_request(name, "ms", self_ms.get(span, 0.0))
    for name, span in (("center.top_k_calls", "center.top_k"),
                       ("chemgraph.apply_edits_calls", "chemgraph.apply_edits"),
                       ("wln.embed_calls", "wln.embed")):
        per_request(name, "count", calls.get(span, 0))
    for name, counter, unit in (
            ("center.pairs_scored", "center.pairs_scored", "count"),
            ("candgen.candidates", "candgen.candidates", "count"),
            ("candgen.truncated_share", "candgen.truncated", "share"),
            ("ranker.candidates_scored", "ranker.candidates_scored", "count"),
            ("wln.atoms_embedded", "wln.atoms_embedded", "count"),
            ("diffengine.matmul_mflop", "diffengine.matmul_mflop", "MFLOP"),
            *((f"diffengine.ops.{kind}", f"diffengine.ops.{kind}", "count")
              for kind in OP_KINDS)):
        per_request(name, unit, serve.total(counter, predicts))

    # Inclusive shares of predict time held by its top-level child spans;
    # what they leave is predict's own parsing and serialization.
    inclusive: dict[str, float] = {}
    predict_total = 0.0
    for sp in serve.spans:
        if sp.name == "pipeline.predict":
            predict_total += sp.end - sp.start
        elif sp.parent is not None and serve.spans[sp.parent].name == "pipeline.predict":
            inclusive[sp.name] = inclusive.get(sp.name, 0.0) + sp.end - sp.start
    for layer, names in (("center", ("center.score", "center.top_k")),
                         ("candgen", ("candgen.enumerate",)), ("ranker", ("ranker.rank",))):
        out[f"{layer}.predict_share"] = (
            sum(inclusive.get(x, 0.0) for x in names) / predict_total, "share", n)
    out["pipeline.predict_covered_share"] = (sum(inclusive.values()) / predict_total, "share", n)
    scored = serve.total("ranker.candidates_scored", predicts)
    out["ranker.ms_per_candidate"] = (
        1000.0 * inclusive.get("ranker.rank", 0.0) / scored if scored else 0.0, "ms", int(scored))
    out["candgen.distinct_share"] = distinct_share(serve, predicts)

    # Evaluate side, per evaluated record.
    records = set(serve.requests_of("record"))
    wl = [i for i, sp in enumerate(serve.spans)
          if sp.request in records and sp.name == "wliso.wl_equivalent"]
    out["wliso.wl_equivalent_calls"] = (len(wl) / len(records), "count", len(records))
    out["wliso.wl_equivalent_ms"] = (1000.0 * sum(own[i] for i in wl) / len(records), "ms",
                                     len(records))

    # Training side: totals over one traced training of both models.
    epochs = train_t.requests_of("center.epoch") + train_t.requests_of("ranker.epoch")
    train_own = train_t.self_times()
    for name, span in (("diffengine.backward_ms", "diffengine.backward"),
                       ("diffengine.adam_ms", "diffengine.adam")):
        idx = [i for i, sp in enumerate(train_t.spans) if sp.name == span]
        out[name] = (1000.0 * sum(train_own[i] for i in idx), "ms", len(idx))
    out["diffengine.train_ops"] = (
        sum(train_t.total(f"diffengine.ops.{kind}", epochs) for kind in OP_KINDS),
        "count", len(epochs))
    return out


def distinct_share(serve: Tracer, predicts: set[int]) -> tuple[float, str, int]:
    """Share of candidates whose product WL fingerprint is unique in its list."""
    total = unique = 0
    for request, candidates in serve.enumerations:
        if request in predicts:
            prints = [wl_fingerprint(c.product, 3) for c in candidates]
            counts: dict = {}
            for fp in prints:
                counts[fp] = counts.get(fp, 0) + 1
            total += len(prints)
            unique += sum(1 for fp in prints if counts[fp] == 1)
    return (unique / total if total else 0.0, "share", total)


def run_in_tempdir(w: Workload, seed: int, seconds: float, trace: bool,
                   root: Path, trace_path: Path | None = None) -> Result:
    root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        return run(w, seed, seconds, trace, Path(tmp), trace_path)
