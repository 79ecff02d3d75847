"""Property tests: a training step scores its minibatch as one union.

``pipeline._center_loss`` and ``pipeline._ranker_loss`` record one forward
pass over all of a step's items. One item gives bitwise the loss and
gradients of the per-record route: the record's graph embedded on its own
and scored alone. More items give the per-record route's summed loss and
accumulated gradients up to rounding, as the weight gradients then sum over
the union's rows in another order.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnpred import datagen
from rxnpred import diffengine as de
from rxnpred.center import CenterModel, _pair_codes, center_loss, upper_pairs
from rxnpred.pipeline import (RunConfig, _build_instances, _center_loss, _ranker_loss,
                              parse_reaction_line)
from rxnpred.ranker import RankerModel
from rxnpred.wln import embed_atoms


@cache
def records():
    lines = datagen.toy_reaction_lines(16, seed=11) + datagen.reagent_fixture_lines(4, seed=11)
    return [parse_reaction_line(line) for line in lines]


@cache
def instances(feed):
    """Ranking instances whose candidate lists come from the oracle centers
    (about 2 candidates each) or from an untrained center's top 6 pairs
    (tens of candidates each), with the truth inserted where missed."""
    center = None if feed == "oracle" else CenterModel.create("local", hidden=8, depth=2, seed=3)
    return _build_instances(records(), center, RunConfig(k=6, max_changes=2,
                                                         augment_truth=True))


def center_item_loss(model, rec):
    """One record's center loss through the per-record route: its graph
    embedded alone, its own pairs scored, its own truth."""
    g = rec.reactants
    pairs = upper_pairs(g.n_atoms)
    us, vs = pairs.T
    scores = model._scores([g], embed_atoms(g, model.wln), us, vs, _pair_codes(g, us, vs))
    return center_loss(scores, pairs, rec.true_edits)


def ranker_item_loss(model, inst):
    """One instance's ranker loss: its reaction scored alone."""
    scores = model.score_reactions([(inst.record.reactants, inst.candidates)])
    return de.softmax_logloss(scores, [(inst.true_index, len(inst.candidates))])


def step(model, items):
    """The loss and every tensor's gradient of one optimizer step over
    ``items``, recorded as one union."""
    model.store.zero_grads()
    loss_fn = _center_loss if isinstance(model, CenterModel) else _ranker_loss
    loss = loss_fn(model, items)
    de.backward(loss)
    return loss.item(), gradients(model)


def per_item_step(model, items, item_loss):
    """The same as the per-record route ran it: one backward pass per item,
    the gradients accumulating and the losses summing in item order."""
    model.store.zero_grads()
    total = 0.0
    for item in items:
        loss = item_loss(model, item)
        de.backward(loss)
        total += loss.item()
    return total, gradients(model)


def gradients(model):
    grads = {name: model.store[name].grad for name in model.store.names()}
    model.store.zero_grads()
    return grads


def assert_matches(got, want, exact):
    (got_loss, got_grads), (want_loss, want_grads) = got, want
    if exact:
        assert float.hex(got_loss) == float.hex(want_loss)
    else:
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, ref in want_grads.items():
        grad = got_grads[name]
        assert (grad is None) == (ref is None), name
        if ref is None:
            continue
        if exact:
            assert grad.tobytes() == ref.tobytes(), name
        else:
            scale = max(np.abs(ref).max(initial=0.0), 1e-300)
            assert np.abs(grad - ref).max(initial=0.0) <= 1e-12 * scale, name


def picks(pool_size):
    return st.lists(st.integers(0, pool_size - 1), min_size=1, max_size=8, unique=True)


MODEL_ARGS = st.fixed_dictionaries({"hidden": st.integers(2, 8), "depth": st.integers(1, 3),
                                    "seed": st.integers(0, 1000)})


def check_step(model, items, item_loss):
    """The first item alone is bitwise the per-record route, all items
    together within 1e-12 of it, relative."""
    assert_matches(step(model, items[:1]), per_item_step(model, items[:1], item_loss),
                   exact=True)
    assert_matches(step(model, items), per_item_step(model, items, item_loss),
                   exact=len(items) == 1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.data(), MODEL_ARGS)
def test_center_step_is_the_per_record_route(data, model_args):
    items = [records()[i] for i in data.draw(picks(len(records())))]
    for variant in CenterModel.VARIANTS:
        check_step(CenterModel.create(variant, **model_args), items, center_item_loss)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["oracle", "center"]), st.data(), MODEL_ARGS)
def test_ranker_step_is_the_per_record_route(feed, data, model_args):
    pool = instances(feed)
    items = [pool[i] for i in data.draw(picks(len(pool)))]
    for variant in RankerModel.VARIANTS:
        check_step(RankerModel.create(variant, **model_args), items, ranker_item_loss)
