"""In-memory span tracer that wraps rxnpred's public functions from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.installed` swaps each
traced function for a wrapper *at the binding its caller uses* (several
modules bind names at import, e.g. ``from .wln import embed_from_features``
in ``center`` and ``ranker``) and puts the originals back on exit.

A span records name, start, end, parent span and request id. A request is
one ``predict`` call, one record inside ``evaluate`` (it starts where
``evaluate`` asks the center for that record's scores), or one training
epoch (epochs are delimited by the per-epoch log records the train loops
emit). ``diffengine`` ops are counted, not spanned: one span per op would
swamp the run.
"""

from __future__ import annotations

import json
import logging
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from rxnpred import candgen, center, diffengine, pipeline, ranker, wln

# Public diffengine operations whose calls are counted.
OP_KINDS = (
    "add", "concat_cols", "constant", "dot", "gather_rows", "log", "matmul",
    "matvec", "mul", "relu", "reshape", "scale", "segment_sum", "sigmoid",
    "softmax_logloss", "stack_rows", "sub", "sum_rows", "tanh",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_kinds: list[str] = ["other"]  # request id -> kind
        self.request = 0
        # (request id, counter name) -> value
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.enumerations: list[tuple[int, list]] = []  # (request, candidates)
        self._stack: list[int] = []
        self._epoch_kind: str | None = None

    # -- requests --------------------------------------------------------------

    def begin_request(self, kind: str) -> None:
        self.request = len(self.request_kinds)
        self.request_kinds.append(kind)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.request, name)] += value

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, kind, fn):
        counts = self.counts
        key = "diffengine.ops." + kind

        if kind == "matmul":
            def wrapper(a, b):
                request = self.request
                counts[(request, key)] += 1
                m, k = a.values.shape
                counts[(request, "diffengine.matmul_mflop")] += 2e-6 * m * k * b.values.shape[1]
                return fn(a, b)
        else:
            def wrapper(*args, **kwargs):
                counts[(self.request, key)] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _start_predict(self, args) -> None:
        self.begin_request("predict")

    def _start_evaluate(self, args) -> None:
        self.begin_request("evaluate")

    def _start_score(self, args) -> None:
        # Inside evaluate, each record starts with its center scores.
        parent = self.spans[self._stack[-1]] if self._stack else None
        if parent is not None and parent.name == "pipeline.evaluate":
            self.begin_request("record")

    def _start_training(self, kind):
        def before(args) -> None:
            self._epoch_kind = kind
        return before

    def _end_training(self, args, result) -> None:
        # What follows the last epoch record (restoring the best epoch, saving)
        # is not an epoch.
        self._epoch_kind = None
        self.request_kinds[self.request] = "other"

    def _adam_created(self, args, result) -> None:
        # The train loops build their optimizer right before epoch 1.
        if self._epoch_kind is not None:
            self.begin_request(self._epoch_kind)

    def _epoch_logged(self, record: logging.LogRecord) -> None:
        if self._epoch_kind is not None and str(record.msg).startswith(
                self._epoch_kind.split(".")[0] + " epoch"):
            self.begin_request(self._epoch_kind)

    def _after_score(self, args, result) -> None:
        n = args[1].n_atoms
        self.count("center.pairs_scored", n * (n - 1) // 2)

    def _after_enumerate(self, args, result) -> None:
        self.count("candgen.candidates", len(result.candidates))
        self.count("candgen.truncated", int(result.truncated))
        self.enumerations.append((self.request, result.candidates))

    def _after_rank(self, args, result) -> None:
        self.count("ranker.candidates_scored", len(result))

    def _after_embed(self, args, result) -> None:
        self.count("wln.atoms_embedded", args[0].n_atoms)

    def _patches(self):
        s = self._spanned
        epoch_handler = _Callback(self._epoch_logged)
        return [
            (pipeline, "load_dataset", s("pipeline.load_dataset", pipeline.load_dataset)),
            (pipeline, "predict", s("pipeline.predict", pipeline.predict,
                                    before=self._start_predict)),
            (pipeline, "evaluate", s("pipeline.evaluate", pipeline.evaluate,
                                     before=self._start_evaluate)),
            (pipeline, "train_center", s("pipeline.train_center", pipeline.train_center,
                                         before=self._start_training("center.epoch"),
                                         after=self._end_training)),
            (pipeline, "train_ranker", s("pipeline.train_ranker", pipeline.train_ranker,
                                         before=self._start_training("ranker.epoch"),
                                         after=self._end_training)),
            (center.CenterModel, "score_matrix",
             s("center.score", center.CenterModel.score_matrix,
               before=self._start_score, after=self._after_score)),
            (pipeline, "top_k_pairs", s("center.top_k", pipeline.top_k_pairs)),
            (pipeline, "enumerate_candidates",
             s("candgen.enumerate", pipeline.enumerate_candidates,
               after=self._after_enumerate)),
            (candgen, "apply_edits", s("chemgraph.apply_edits", candgen.apply_edits)),
            (pipeline, "rank_candidates", s("ranker.rank", pipeline.rank_candidates,
                                            after=self._after_rank)),
            (wln, "embed_from_features", s("wln.embed", wln.embed_from_features,
                                           after=self._after_embed)),
            (center, "embed_from_features", s("wln.embed", center.embed_from_features,
                                              after=self._after_embed)),
            (ranker, "embed_from_features", s("wln.embed", ranker.embed_from_features,
                                              after=self._after_embed)),
            (pipeline, "wl_equivalent", s("wliso.wl_equivalent", pipeline.wl_equivalent)),
            (diffengine, "backward", s("diffengine.backward", diffengine.backward)),
            (diffengine, "adam_step", s("diffengine.adam", diffengine.adam_step)),
            (diffengine, "AdamState", _subclass_with_hook(diffengine.AdamState,
                                                          self._adam_created)),
            *((diffengine, kind, self._counted(kind, getattr(diffengine, kind)))
              for kind in OP_KINDS),
        ], epoch_handler

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patches, handler = self._patches()
        originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        log = logging.getLogger("rxnpred.pipeline")
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            log.addHandler(handler)
            yield self
        finally:
            log.removeHandler(handler)
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)

    # -- analysis -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        return own

    def requests_of(self, kind: str) -> list[int]:
        return [i for i, k in enumerate(self.request_kinds) if k == kind]

    def total(self, name: str, requests) -> float:
        return sum(self.counts.get((r, name), 0.0) for r in requests)

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "parent": sp.parent,
                    "request": sp.request, "kind": self.request_kinds[sp.request],
                    "start_us": round((sp.start - t0) * 1e6, 1),
                    "end_us": round((sp.end - t0) * 1e6, 1)}) + "\n")


class _Callback(logging.Handler):
    def __init__(self, fn) -> None:
        super().__init__(logging.INFO)
        self._fn = fn

    def emit(self, record: logging.LogRecord) -> None:
        self._fn(record)


def _subclass_with_hook(cls, hook):
    class Hooked(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hook(args, self)
    Hooked.__name__ = cls.__name__
    Hooked.__qualname__ = cls.__qualname__
    return Hooked
