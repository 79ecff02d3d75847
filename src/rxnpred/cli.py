"""Command-line interface.

Subcommands: ``train-center``, ``train-ranker``, ``predict``, ``evaluate``,
``selfcheck``. Run settings may also come from a ``--config`` file of
``key=value`` lines; a flag's text is parsed and checked as the file's line of
the same key is, and explicit flags override file values. ``--model`` may be
repeated where a command needs both a center and a ranker checkpoint (each
checkpoint knows its own kind).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import numpy as np

from .center import CenterModel
from .diffengine import ParamStore
from .pipeline import (RunConfig, evaluate, load_dataset, predict, split_records, train_center,
                       train_ranker)
from .ranker import RankerModel

# Each run-setting flag's RunConfig field and help; center, target_train_* are config-only.
SETTING_FLAGS = {
    "data": "reaction file (reactants>reagents>products per line)",
    "out": "output checkpoint or report path",
    "k": "top-K reactive pairs",
    "depth": "relabeling rounds",
    "hidden": "hidden width",
    "max_changes": "max simultaneous bond edits per candidate",
    "epochs": "training epochs",
    "batch": "reactions per optimizer step, scored as one union",
    "lr": "learning rate",
    "decay": "per-epoch learning-rate decay factor",
    "seed": "random seed",
    "variant": f"center {'|'.join(CenterModel.VARIANTS)} or ranker "
               f"{'|'.join(RankerModel.VARIANTS)}; the first is the default",
    "augment_truth": "insert the true product when enumeration misses it",
    "split": "train,dev,test fractions, e.g. 0.8,0.1,0.1",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", action="append", default=None,
                        help="checkpoint path; repeatable. For train-ranker: the "
                             "center checkpoint or 'oracle'")
    for name, text in SETTING_FLAGS.items():
        switch = {"action": "store_const", "const": "true"} if name == "augment_truth" else {}
        parser.add_argument("--" + name.replace("_", "-"), help=text, **switch)
    parser.add_argument("--config", help="key=value config file; flags override")
    parser.add_argument("-v", "--verbose", action="store_true")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run settings: the flags that are set, as text, over the
    ``--config`` file, over the defaults; one parser reads both."""
    flags = {name: getattr(args, name) for name in SETTING_FLAGS
             if getattr(args, name) is not None}
    return RunConfig.from_file(args.config, **flags)


def _load_models(paths: list[str] | None):
    """Sort checkpoints into (center, ranker) by their recorded kind."""
    center = ranker = None
    for path in paths or []:
        store = ParamStore.load(path)
        kind = store.metadata.get("kind")
        if kind == "center":
            center = CenterModel.from_store(store)
        elif kind == "ranker":
            ranker = RankerModel.from_store(store)
        else:
            raise SystemExit(f"{path}: unknown checkpoint kind {kind!r}")
    return center, ranker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rxnpred",
        description="template-free reaction outcome prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_center = sub.add_parser("train-center", help="train the reactive-pair scorer")
    p_ranker = sub.add_parser("train-ranker", help="train the candidate ranker")
    p_predict = sub.add_parser("predict", help="predict products for reactant SMILES")
    p_predict.add_argument("smiles", help="reactant SMILES (atom maps optional)")
    p_predict.add_argument("--top-n", help="products to print (default: predict's)")
    p_eval = sub.add_parser("evaluate", help="score a test file with both models")
    p_self = sub.add_parser("selfcheck", help="run gradient and oracle suites")
    for p in (p_center, p_ranker, p_predict, p_eval, p_self):
        _add_common(p)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    # Bad input (a run setting, a SMILES string, a checkpoint or a data file)
    # or a non-finite value ends the command with one line, not a traceback.
    # numpy's warnings are silenced: the checks that raise on non-finite
    # scores, parameters and losses report such values instead.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(args)
    except (ValueError, OSError, FloatingPointError) as e:
        raise SystemExit(str(e)) from e


def _run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    top_n = getattr(args, "top_n", None)  # predict's flag, read as a run setting's is
    try:
        top_n = {} if top_n is None else {"top_n": int(top_n)}
    except ValueError:
        raise ValueError(f"--top-n: takes an integer, got {top_n!r}") from None

    if args.command == "selfcheck":
        from .selfcheck import run_selfcheck
        failures = 0
        for result in run_selfcheck(seed=cfg.seed):
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.name}: {result.detail}")
            failures += int(not result.passed)
        return 1 if failures else 0

    if args.command in ("train-center", "train-ranker"):
        if args.command == "train-ranker":
            cfg = replace(cfg, center=(args.model or ["oracle"])[0])
        train = train_center if args.command == "train-center" else train_ranker
        result = train(cfg)
        last = result.history[-1]
        score = (f"coverage@{cfg.k} {last['train_coverage']:.3f}"
                 if train is train_center else f"P@1 {last['train_p1']:.3f}")
        print(f"saved {result.checkpoint} (best epoch {result.best_epoch}, "
              f"final train {score})")
        return 0

    center, ranker = _load_models(args.model)
    if center is None or ranker is None:
        raise SystemExit("this command needs --model for both a center and a "
                         "ranker checkpoint")

    if args.command == "predict":
        result = predict(args.smiles, center, ranker, k=cfg.k, max_changes=cfg.max_changes,
                         **top_n)
        if result.reason:
            print(f"no candidates: {result.reason}")
            return 1
        print(f"top pairs: {result.top_pairs}; {result.n_candidates} candidates"
              + (" (truncated)" if result.truncated else ""))
        for rank, product in enumerate(result.products, 1):
            edit_text = ", ".join(f"({u},{v})->{bond}" for u, v, bond in product.edits)
            print(f"{rank}. {product.smiles}  score={product.score:.4f}  [{edit_text}]")
        return 0

    if args.command == "evaluate":
        if cfg.data is None:
            raise SystemExit("evaluate needs --data")
        records = load_dataset(cfg.data)
        _, _, test = split_records(records, cfg.split)
        subset = test if test else records
        report = evaluate(subset, center, ranker, cfg)
        print(report.table())
        print()
        for line in report.lines():
            print(line)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.lines()) + "\n")
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
