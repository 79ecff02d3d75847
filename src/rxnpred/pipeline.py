"""Dataset ingestion, training loops, end-to-end prediction, and evaluation.

Input files hold one reaction per line as ``reactants>reagents>products``
(SMILES with ``:n`` atom maps, reagent field may be empty, ``#`` comments and
blank lines skipped). Reagents are merged into the reactant graph as extra
components; they take part in scoring but never lie in the reaction center.
Only the largest product component is kept for the edits, and records whose
product contains unmapped atoms, or whose edit set is empty, are dropped with
a diagnostic.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate

import numpy as np

from . import diffengine as de
from .candgen import Candidate, EditSet, enumerate_candidates
from .center import CenterModel, center_loss, coverage, reaction_edits, top_k_pairs
from .chemgraph import (BondType, MolGraph, induced_subgraph, merge_graphs, parse_smiles,
                        with_map_numbers, write_smiles)
from .ranker import RankerModel, rank_candidates, rank_reactions
from .wliso import _fnv1a, wl_equivalent
from .wln import MAX_DEPTH

logger = logging.getLogger(__name__)

__all__ = [
    "MAX_ATOMS", "EvalReport", "PredictedProduct", "PredictResult", "ReactionRecord",
    "RecordError", "RunConfig", "TrainResult", "check_split", "evaluate", "load_dataset",
    "parse_reaction_line", "predict", "split_records", "train_center", "train_ranker",
]

# Largest reactant graph (reagents included) that datasets load and
# ``predict`` accepts.
MAX_ATOMS = 150
# K values whose coverage ``evaluate`` reports, besides the run's own k.
EVAL_KS = (6, 8, 10)
# Reactant atoms per batched pass of the per-epoch metrics and of candidate
# building: bounds the arrays of one pass on large training sets.
MAX_BATCH_ATOMS = 4096
# The optional early-stop settings: shares in [0, 1].
_TARGETS = ("target_train_coverage", "target_train_p1")

@dataclass
class RunConfig:
    data: str | None = None
    out: str | None = None
    center: str | None = None       # center checkpoint path, or "oracle"
    k: int = 6
    max_changes: int = 3
    hidden: int = 64
    depth: int = 3
    epochs: int = 100
    batch: int = 1
    lr: float = 1e-3
    decay: float = 0.9
    seed: int = 0
    variant: str | None = None      # a model's VARIANTS entry; None: the first of them
    augment_truth: bool = False
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # Optional early-stop targets for small overfit runs:
    target_train_coverage: float | None = None
    target_train_p1: float | None = None

    def __post_init__(self) -> None:
        for name in ("k", "max_changes", "hidden", "depth", "epochs", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be positive")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"config field depth must be at most {MAX_DEPTH}, got {self.depth}")
        for name in ("lr", "decay"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"config field {name} must be finite and positive, got {value}")
        for name in _TARGETS:
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 1:  # NaN fails both comparisons
                raise ValueError(f"config field {name} must be in [0, 1], got {value}")
        check_split(self.split)
        variants = CenterModel.VARIANTS + RankerModel.VARIANTS
        if self.variant not in (None, *variants):
            raise ValueError(f"config field variant must be one of {', '.join(variants)}, "
                             f"got {self.variant!r}")

    @classmethod
    def from_file(cls, path=None, **overrides: str) -> "RunConfig":
        """The key=value lines ('#' comments) of ``path``, if given (UTF-8, a
        leading byte-order mark dropped), under ``overrides`` (text, as a
        line's value is), over the defaults. A bad line raises ``ValueError``
        naming the file and line, a bad override naming its flag
        (``--max-changes`` for ``max_changes``)."""
        values: dict[str, tuple[str, str]] = {}
        lines = de.read_lines(path, "utf-8-sig") if path is not None else []
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            values[key.strip().replace("-", "_")] = (f"{path}:{lineno}", value.strip())
        for key, value in overrides.items():
            values[key] = ("--" + key.replace("_", "-"), value)
        cfg = cls()
        for key, (where, value) in values.items():
            try:
                cfg = _set_config_field(cfg, key, value)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
        return cfg


def _parse_split(raw: str) -> tuple[float, ...]:
    """``"0.8,0.1,0.1"`` -> ``(0.8, 0.1, 0.1)``."""
    return tuple(float(x) for x in raw.split(","))


def check_split(fractions: tuple[float, ...]) -> None:
    """Raise ``ValueError`` unless ``fractions`` are three finite,
    non-negative train, dev and test shares that sum to 1."""
    if (len(fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise ValueError("split must be three finite, non-negative fractions that sum "
                         f"to 1, got {','.join(map(str, fractions))}")


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _set_config_field(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    if key not in {f.name for f in fields(RunConfig)}:
        raise ValueError(f"unknown config key {key!r}")
    current = getattr(cfg, key)
    if isinstance(current, bool):
        parse, kind = (lambda text: _BOOLEANS[text.lower()]), "1/true/yes/on or 0/false/no/off"
    elif key == "split":
        parse, kind = _parse_split, "three comma-separated fractions"
    elif isinstance(current, int):
        parse, kind = int, "an integer"
    elif isinstance(current, float) or key in _TARGETS:
        parse, kind = float, "a number"
    else:
        return replace(cfg, **{key: raw})
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise ValueError(f"config key {key!r} takes {kind}, got {raw!r}") from None
    return replace(cfg, **{key: value})


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class ReactionRecord:
    raw: str
    reactants: MolGraph            # reagents merged in as extra components
    product: MolGraph              # largest product component, fully mapped
    true_edits: EditSet            # its pairs are the reaction center


class RecordError(ValueError):
    pass


def parse_reaction_line(line: str) -> ReactionRecord:
    fields = line.split(">")
    if len(fields) != 3:
        raise RecordError(f"expected 'reactants>reagents>products', got {len(fields)} fields")
    reactant_part, reagent_part, product_part = (f.strip() for f in fields)
    if not reactant_part or not product_part:
        raise RecordError("empty reactants or products field")
    smiles = reactant_part + ("." + reagent_part if reagent_part else "")
    reactants = parse_smiles(smiles)
    if reactants.n_atoms > MAX_ATOMS:
        raise RecordError(f"reaction too large ({reactants.n_atoms} atoms)")
    reactants.map_to_index()  # raises on duplicate maps

    product_all = parse_smiles(product_part)
    sizes: dict[int, int] = {}
    for comp in product_all.component:
        sizes[comp] = sizes.get(comp, 0) + 1
    largest = max(sizes, key=lambda c: (sizes[c], -c))
    product = induced_subgraph(
        product_all, [i for i in range(product_all.n_atoms)
                      if product_all.component[i] == largest])
    for i, atom in enumerate(product.atoms):
        if atom.map_number is None:
            raise RecordError(f"product atom {i} is unmapped")

    edits = reaction_edits(reactants, product)
    if len(edits) == 0:
        raise RecordError("no bond changes between reactants and product")
    return ReactionRecord(line, reactants, product, edits)


def load_dataset(path) -> list[ReactionRecord]:
    """Parse and validate a reaction file (UTF-8, a leading byte-order mark
    dropped), skipping malformed lines and records of more than
    :data:`MAX_ATOMS` reactant atoms.

    Raises if the file is unreadable or if more than half of the non-comment
    lines fail to parse.
    """
    records: list[ReactionRecord] = []
    skipped = 0
    total = 0
    for lineno, raw in enumerate(de.read_lines(path, "utf-8-sig"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        total += 1
        try:
            records.append(parse_reaction_line(line))
        except ValueError as exc:
            skipped += 1
            logger.warning("%s:%d: skipped record: %s", path, lineno, exc)
    if total == 0:
        raise ValueError(f"{path}: no reaction records found")
    if skipped > total / 2:
        raise ValueError(f"{path}: {skipped}/{total} records malformed; aborting")
    logger.info("%s: loaded %d records (%d skipped)", path, len(records), skipped)
    return records


def split_records(records: list[ReactionRecord],
                  fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
                  ) -> tuple[list[ReactionRecord], list[ReactionRecord], list[ReactionRecord]]:
    """Deterministic train/dev/test split keyed on a hash of the raw line."""
    check_split(fractions)
    t1 = fractions[0]
    t2 = fractions[0] + fractions[1]
    out: tuple[list[ReactionRecord], ...] = ([], [], [])
    for rec in records:
        u = _fnv1a(rec.raw.encode("utf-8")) / 2.0 ** 64
        out[0 if u < t1 else 1 if u < t2 else 2].append(rec)
    return out


# ---------------------------------------------------------------------------
# Candidate stage
# ---------------------------------------------------------------------------

def _candidate_stage(reactants: MolGraph, pairs: list[tuple[int, int]], max_changes: int,
                     truth: EditSet | None = None, augment: bool = False,
                     ) -> tuple[list[Candidate], bool, int | None]:
    """Enumerate within ``pairs`` and locate the true edit set among the results.

    With ``augment`` the truth is appended whenever enumeration missed it.
    Returns the candidates, whether enumeration was truncated, and the
    truth's index (None without a truth, or when it is missing and not
    appended).
    """
    result = enumerate_candidates(reactants, pairs, max_changes)
    candidates = result.candidates
    idx = next((i for i, cand in enumerate(candidates) if cand.edits == truth), None)
    if idx is None and augment:
        candidates = candidates + [Candidate(truth, reactants)]
        idx = len(candidates) - 1
    return candidates, result.truncated, idx


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint: str
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0


def _fit(cfg: RunConfig, kind: str, model_cls, prepare,
         loss_fn, metric_fn, metric: str, log_format: str,
         target: float | None) -> TrainResult:
    """The training loop of both models: Adam over seeded shuffles of the
    training items, then save the values of the best epoch.

    ``prepare(train, dev)`` turns the split records into training items,
    ``loss_fn(model, items)`` is the summed loss of one step's items, one
    union and one backward pass, and ``metric_fn(model, items)`` the per-epoch
    score, recorded as ``train_<metric>``/``dev_<metric>``.
    Best means the highest dev score (train score when there are no dev
    items). ``log_format`` takes the epoch, loss, train score and dev score;
    training stops early once the train score reaches ``target``. The model
    is ``cfg.variant``, or the first of ``model_cls.VARIANTS`` when that is
    None. Fully deterministic for a fixed config and seed.
    """
    variant = cfg.variant or model_cls.VARIANTS[0]
    if variant not in model_cls.VARIANTS:
        raise ValueError(f"{kind} training cannot train variant {variant!r}; "
                         f"use {' or '.join(map(repr, model_cls.VARIANTS))}")
    if cfg.data is None or cfg.out is None:
        raise ValueError(f"train_{kind} needs cfg.data and cfg.out")
    records = load_dataset(cfg.data)
    train, dev, _ = split_records(records, cfg.split)
    if not train:
        raise ValueError("training split is empty")
    train, dev = prepare(train, dev)
    model = model_cls.create(variant, cfg.hidden, cfg.depth, cfg.seed)
    model.store.metadata.update(k=str(cfg.k), max_changes=str(cfg.max_changes))
    adam = de.AdamState(model.store, lr=cfg.lr, decay=cfg.decay)
    rng = np.random.default_rng(cfg.seed)

    result = TrainResult(checkpoint=cfg.out)
    best_metric = -1.0
    best_values = model.store.clone_values()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch):
            model.store.zero_grads()
            loss = loss_fn(model, [train[idx] for idx in order[start:start + cfg.batch]])
            de.backward(loss)
            epoch_loss += loss.item()
            de.adam_step(model.store, adam)
        if not np.isfinite(epoch_loss):
            raise FloatingPointError(f"training diverged at epoch {epoch} "
                                     f"(loss={epoch_loss!r}); try a lower lr")
        train_score = metric_fn(model, train)
        dev_score = metric_fn(model, dev) if dev else None
        score = dev_score if dev else train_score
        if score > best_metric:
            best_metric = score
            best_values = model.store.clone_values()
            result.best_epoch = epoch
        result.history.append({"epoch": epoch, "loss": epoch_loss,
                               f"train_{metric}": train_score, f"dev_{metric}": dev_score})
        logger.info(log_format, epoch, epoch_loss, train_score,
                    f"{dev_score:.3f}" if dev_score is not None else "-")
        if target is not None and train_score >= target:
            break
        adam.end_epoch()
    model.store.load_values(best_values)
    model.save(cfg.out)
    return result


def _atom_batches(items: list, n_atoms) -> list[list]:
    """``items`` cut into consecutive runs of at most :data:`MAX_BATCH_ATOMS`
    atoms, ``n_atoms(item)`` each; an item larger than that runs alone."""
    batches: list[list] = []
    total = MAX_BATCH_ATOMS
    for item in items:
        size = n_atoms(item)
        if total + size > MAX_BATCH_ATOMS:
            batches.append([])
            total = 0
        batches[-1].append(item)
        total += size
    return batches


def _center_matrices(model: CenterModel, records: list[ReactionRecord]) -> list[np.ndarray]:
    """``model.score_matrix`` of each record's reactants, in batched passes."""
    return [m for batch in _atom_batches(records, lambda rec: rec.reactants.n_atoms)
            for m in model.score_matrices([rec.reactants for rec in batch])]


def _center_coverage(model: CenterModel, records: list[ReactionRecord], k: int) -> float:
    hits = sum(coverage(top_k_pairs(matrix, k), rec.true_edits)
               for rec, matrix in zip(records, _center_matrices(model, records)))
    return hits / len(records)


def _center_loss(model: CenterModel, records: list[ReactionRecord]) -> de.DTensor:
    """The records' summed center loss over one :meth:`CenterModel.pair_scores`
    union of their reactants, each record's truth moved to its atoms there."""
    scores, pairs = model.pair_scores([rec.reactants for rec in records])
    shifts = accumulate((rec.reactants.n_atoms for rec in records), initial=0)
    truth = EditSet.of((e.u + k, e.v + k, e.bond_type)
                       for rec, k in zip(records, shifts) for e in rec.true_edits)
    return center_loss(scores, pairs, truth)


def train_center(cfg: RunConfig) -> TrainResult:
    """Minimize the pairwise log loss with Adam; save the best checkpoint.

    Best means highest dev coverage@k (train coverage when the dev split is
    empty). The variant defaults to local. Fully deterministic for a fixed
    config and seed.
    """
    return _fit(
        cfg, "center", CenterModel, lambda train, dev: (train, dev),
        loss_fn=_center_loss,
        metric_fn=lambda model, records: _center_coverage(model, records, cfg.k),
        metric="coverage",
        log_format=f"center epoch %d: loss %.4f train cov@{cfg.k} %.3f dev cov %s",
        target=cfg.target_train_coverage)


@dataclass
class _RankingInstance:
    record: ReactionRecord
    candidates: list[Candidate]
    true_index: int


def _build_instances(records: list[ReactionRecord], center: CenterModel | None,
                     cfg: RunConfig) -> list[_RankingInstance]:
    instances = []
    if center is None:
        centers = [list(rec.true_edits.pairs) for rec in records]  # oracle centers
    else:
        centers = [top_k_pairs(m, cfg.k) for m in _center_matrices(center, records)]
    for rec, pairs in zip(records, centers):
        candidates, _, idx = _candidate_stage(rec.reactants, pairs, cfg.max_changes,
                                              rec.true_edits, cfg.augment_truth)
        if idx is None:
            logger.warning("true product not among candidates; record skipped "
                           "for ranker training: %s", rec.raw[:80])
            continue
        instances.append(_RankingInstance(rec, candidates, idx))
    return instances


def _ranker_p1(model: RankerModel, instances: list[_RankingInstance]) -> float:
    """Fraction of instances whose top-ranked candidate (the earliest of the
    top-scoring ones, as :func:`rank_candidates` orders them) matches the truth.

    Matching is product-level (edit-set equality or WL equivalence): scorers
    are permutation invariant, so candidates producing isomorphic products tie
    exactly and the atom-mapped edit indices alone cannot split them.
    """
    hits = 0
    for batch in _atom_batches(instances, lambda inst: inst.record.reactants.n_atoms):
        ranked = rank_reactions([(inst.record.reactants, inst.candidates) for inst in batch],
                                model)
        hits += sum(_ProductMatcher(inst.record)(order[0])
                    for inst, order in zip(batch, ranked))
    return hits / len(instances)


def _ranker_loss(model: RankerModel, instances: list[_RankingInstance]) -> de.DTensor:
    """The instances' summed ranker training loss: one softmax log loss per
    candidate list, over one :meth:`RankerModel.score_reactions` union."""
    scores = model.score_reactions([(inst.record.reactants, inst.candidates)
                                    for inst in instances])
    return de.softmax_logloss(scores, [(inst.true_index, len(inst.candidates))
                                       for inst in instances])


def train_ranker(cfg: RunConfig) -> TrainResult:
    """Train the candidate scorer with the softmax ranking objective.

    Candidate lists come from a trained center checkpoint (``cfg.center``) or
    from oracle centers (``cfg.center`` unset or ``"oracle"``); with
    ``augment_truth`` the true product is inserted whenever enumeration
    missed it. The variant defaults to wldn.
    """
    def prepare(train, dev):
        center = None
        if cfg.center and cfg.center != "oracle":
            center = CenterModel.load(cfg.center)
        train_inst = _build_instances(train, center, cfg)
        dev_inst = _build_instances(dev, center, cfg)
        if not train_inst:
            raise ValueError("no usable ranking instances (centers never cover the truth?)")
        return train_inst, dev_inst

    return _fit(
        cfg, "ranker", RankerModel, prepare,
        loss_fn=_ranker_loss,
        metric_fn=_ranker_p1,
        metric="p1",
        log_format="ranker epoch %d: loss %.4f train P@1 %.3f dev P@1 %s",
        target=cfg.target_train_p1)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

@dataclass
class PredictedProduct:
    smiles: str
    score: float
    edits: list[tuple[int, int, str]]  # atom maps + new bond name


@dataclass
class PredictResult:
    reactants: str
    top_pairs: list[tuple[int, int]]
    n_candidates: int
    truncated: bool
    products: list[PredictedProduct]
    reason: str | None = None      # set when no candidates could be produced


def predict(reactants_smiles: str, center: CenterModel, ranker: RankerModel,
            k: int = RunConfig.k, top_n: int = 5,
            max_changes: int = RunConfig.max_changes) -> PredictResult:
    """Full pipeline: score pairs, enumerate within the top-K, rank, serialize.

    Atom maps are optional on input: when any atom is unmapped, every atom
    is renumbered to its index + 1, and the edits name atoms by those
    numbers. Inputs of more than :data:`MAX_ATOMS` atoms or with a repeated
    map number raise ``ValueError``, as :func:`load_dataset` skips such
    records, and so does a ``top_n`` below 1.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    g = parse_smiles(reactants_smiles)
    if g.n_atoms > MAX_ATOMS:
        raise ValueError(f"reactants too large ({g.n_atoms} atoms; the cap is {MAX_ATOMS})")
    if any(a.map_number is None for a in g.atoms):
        g = with_map_numbers(g)
    else:
        g.map_to_index()  # raises on a repeated map number

    if g.n_atoms < 2:
        return PredictResult(reactants_smiles, [], 0, False, [],
                             reason="fewer than two atoms: no pairs to score")
    pairs = top_k_pairs(center.score_matrix(g), k)
    candidates, truncated, _ = _candidate_stage(g, pairs, max_changes)
    if not candidates:
        return PredictResult(reactants_smiles, pairs, 0, truncated, [],
                             reason="every enumerated edit was filtered out")
    ranked = rank_candidates(g, candidates, ranker)
    products = []
    for cand in ranked[:top_n]:
        smiles = write_smiles(cand.local_product)
        edits = [(g.atoms[e.u].map_number, g.atoms[e.v].map_number,
                  e.bond_type.name.lower()) for e in cand.edits]
        products.append(PredictedProduct(smiles, float(cand.score), edits))
    return PredictResult(reactants_smiles, pairs, len(candidates), truncated, products)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    n_records: int
    coverage_at: dict[int, float]
    p_at: dict[int, float]
    mrr: float
    avg_candidates: float
    truncated: int
    median_latency_ms: float
    p95_latency_ms: float

    def lines(self, include_timing: bool = True) -> list[str]:
        """Machine-readable key=value lines; timing excluded on request so
        reports from identical runs compare bitwise."""
        out = [f"records={self.n_records}"]
        for k in sorted(self.coverage_at):
            out.append(f"coverage@{k}={self.coverage_at[k]:.6f}")
        for k in sorted(self.p_at):
            out.append(f"p@{k}={self.p_at[k]:.6f}")
        out.append(f"mrr={self.mrr:.6f}")
        out.append(f"avg_candidates={self.avg_candidates:.3f}")
        out.append(f"truncated={self.truncated}")
        if include_timing:
            out.append(f"candgen_latency_ms_median={self.median_latency_ms:.3f}")
            out.append(f"candgen_latency_ms_p95={self.p95_latency_ms:.3f}")
        return out

    def table(self) -> str:
        rows = [("records", str(self.n_records))]
        rows += [(f"coverage@{k}", f"{v:.1%}") for k, v in sorted(self.coverage_at.items())]
        rows += [(f"P@{k}", f"{v:.1%}") for k, v in sorted(self.p_at.items())]
        rows += [("MRR", f"{self.mrr:.4f}"),
                 ("avg candidates", f"{self.avg_candidates:.1f}"),
                 ("truncated lists", str(self.truncated)),
                 ("candgen median", f"{self.median_latency_ms:.2f} ms"),
                 ("candgen p95", f"{self.p95_latency_ms:.2f} ms")]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


class _ProductMatcher:
    """Does a candidate make the record's product? Built once per record and
    called once per candidate.

    Primary criterion: edit-set equality. Fallback: WL equivalence between
    the candidate product molecules that hold the recorded product's atoms
    and the recorded product graph (whole components, so a surviving bond to
    an atom outside the recorded product still counts as a mismatch). Those
    molecules are the local components of the candidate's edit delta that
    hold a mapped atom, plus the untouched reactant components that do.

    Equal fingerprints imply equal atom counts and equal edge-triple
    multisets, so the fallback first compares the molecules' atom count and
    then their count of each bond type, read from the delta and from the
    reactant components, with the product's. Only a candidate that passes
    both has its molecules built for the WL test, from its edit-local
    product and the reactant components; no full product is built.
    """

    def __init__(self, rec: ReactionRecord):
        self.rec = rec
        reactants = rec.reactants
        p_maps = {a.map_number for a in rec.product.atoms}
        self._mapped = {i for i, a in enumerate(reactants.atoms) if a.map_number in p_maps}
        codes = reactants.codes
        comps = sorted({reactants.component[i] for i in self._mapped})
        self._sizes = {c: len(codes.comp_atoms[c]) for c in comps}
        self._comp_types = {c: _type_counts(t for _, _, _, t, _ in codes.comp_bonds[c])
                            for c in comps}
        self._types = _type_counts(b.bond_type.value for b in rec.product.bonds)

    def __call__(self, cand: Candidate) -> bool:
        rec = self.rec
        if cand.edits == rec.true_edits:
            return True
        d = cand.delta
        reactants = rec.reactants
        local_comps = {c for a, c in zip(d.atoms, d.component) if a in self._mapped}
        edited = {reactants.component[a] for e in cand.edits for a in (e.u, e.v)}
        untouched = [c for c in self._sizes if c not in edited]
        size = (sum(c in local_comps for c in d.component)
                + sum(self._sizes[c] for c in untouched))
        if size != rec.product.n_atoms:
            return False
        types = _type_counts(t for u, _, t in d.bond_triples() if d.component[u] in local_comps)
        for c in untouched:
            types = [a + b for a, b in zip(types, self._comp_types[c])]
        if types != self._types:
            return False
        molecules = merge_graphs(
            [induced_subgraph(cand.local_product,
                              [i for i, c in enumerate(d.component) if c in local_comps])]
            + [induced_subgraph(reactants, reactants.codes.comp_atoms[c]) for c in untouched])
        return wl_equivalent(molecules, rec.product, depth=3)


def _type_counts(values) -> list[int]:
    """How many bonds of each ``BondType`` value."""
    counts = [0] * len(BondType)
    for t in values:
        counts[t] += 1
    return counts


def evaluate(records: list[ReactionRecord], center: CenterModel,
             ranker: RankerModel, cfg: RunConfig | None = None) -> EvalReport:
    """Coverage, precision-at-rank, MRR, and candidate-generation latency.

    With ``cfg.augment_truth`` the true product joins the candidate list
    whenever enumeration missed it (the starred protocol).
    """
    cfg = cfg or RunConfig()
    ks = sorted(set(EVAL_KS) | {cfg.k})
    cover_hits = {k: 0 for k in ks}
    ranks: list[float] = []
    latencies: list[float] = []
    n_cands: list[int] = []
    truncated = 0
    for rec in records:
        # Shorter top-K lists are prefixes of the longest one.
        ranked_pairs = top_k_pairs(center.score_matrix(rec.reactants), ks[-1])
        for k in ks:
            if coverage(ranked_pairs[:k], rec.true_edits):
                cover_hits[k] += 1
        t0 = time.perf_counter()
        candidates, was_truncated, _ = _candidate_stage(
            rec.reactants, ranked_pairs[:cfg.k], cfg.max_changes, rec.true_edits, cfg.augment_truth)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        truncated += int(was_truncated)
        n_cands.append(len(candidates))
        rank = None
        if candidates:
            ranked = rank_candidates(rec.reactants, candidates, ranker)
            matches = _ProductMatcher(rec)
            for pos, cand in enumerate(ranked, 1):
                if matches(cand):
                    rank = pos
                    break
        ranks.append(1.0 / rank if rank else 0.0)

    n = len(records)
    return EvalReport(
        n_records=n,
        coverage_at={k: cover_hits[k] / n for k in ks} if n else {k: 0.0 for k in ks},
        p_at={k: (sum(1 for r in ranks if r >= 1.0 / k) / n if n else 0.0)
              for k in (1, 3, 5)},
        mrr=float(np.mean(ranks)) if ranks else 0.0,
        avg_candidates=float(np.mean(n_cands)) if n_cands else 0.0,
        truncated=truncated,
        median_latency_ms=float(np.percentile(latencies, 50)) if latencies else 0.0,
        p95_latency_ms=float(np.percentile(latencies, 95)) if latencies else 0.0,
    )
