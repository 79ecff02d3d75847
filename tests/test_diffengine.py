import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnpred import diffengine as de
from rxnpred.center import CenterModel
from rxnpred.chemgraph import ATOM_FEATURE_DIM
from rxnpred.pipeline import MAX_ATOMS, RunConfig
from rxnpred.ranker import RankerModel
from rxnpred.wln import MAX_DEPTH


def fd_check_unary(op, rng, nudge=0.0, rows=None, cols=None, h=1e-6):
    """Finite-difference probe for a single op against a random linear head."""
    rows = rows or int(rng.integers(1, 17))
    cols = cols or int(rng.integers(1, 17))
    x0 = rng.normal(size=(rows, cols))
    if nudge:
        x0 = x0 + np.sign(x0) * nudge  # keep clear of kinks
    head = rng.normal(size=(rows, cols))

    def scalar(values):
        x = de.DTensor(values.copy(), requires_grad=True)
        out = op(x)
        probe = (de.constant(head) if head.shape == out.shape
                 else de.constant(np.ones(out.shape)))
        return x, de.dot(out, probe)

    x, loss = scalar(x0)
    de.backward(loss)
    analytic = x.grad.copy()
    worst = 0.0
    for idx in np.ndindex(x0.shape):
        up = x0.copy(); up[idx] += h
        down = x0.copy(); down[idx] -= h
        numeric = (scalar(up)[1].item() - scalar(down)[1].item()) / (2 * h)
        err = abs(analytic[idx] - numeric) / max(1e-8, abs(analytic[idx]) + abs(numeric))
        worst = max(worst, err)
    return worst


class TestForwardValues:
    def test_sigmoid_zero(self):
        assert de.sigmoid(de.constant([[0.0]])).item() == 0.5

    def test_uniform_softmax_logloss(self):
        for target in range(4):
            loss = de.softmax_logloss(de.constant(np.zeros((4, 1))), [(target, 4)])
            assert abs(loss.item() - math.log(4)) < 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12), st.integers(0, 10 ** 6))
    def test_one_list_is_bitwise_the_single_target_form(self, values, pick):
        def single_target(scores, target):
            """The loss of one list as a single-target op computes it."""
            s = scores[:, 0]
            shift = s - s.max()
            log_z = math.log(np.exp(shift).sum())
            grad = np.exp(shift - log_z).reshape(-1, 1)
            grad[target] -= 1.0
            return np.array([[log_z - shift[target]]]), grad

        target = pick % len(values)
        s = de.DTensor(np.array(values).reshape(-1, 1), requires_grad=True)
        loss = de.softmax_logloss(s, [(target, len(values))])
        de.backward(loss)
        want_loss, want_grad = single_target(s.values, target)
        assert loss.values.tobytes() == want_loss.tobytes()
        assert s.grad.tobytes() == want_grad.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 10 ** 6)), min_size=1,
                    max_size=5), st.integers(0, 2 ** 32 - 1))
    def test_lists_sum_their_losses_and_keep_their_rows(self, shapes, seed):
        # Each list's gradient rows are bitwise its own loss's, and the loss
        # adds the lists' losses in order.
        lists = [(pick % length, length) for length, pick in shapes]
        values = np.random.default_rng(seed).normal(scale=5.0, size=(sum(n for _, n in lists), 1))
        s = de.DTensor(values.copy(), requires_grad=True)
        loss = de.softmax_logloss(s, lists)
        de.backward(loss)
        total, start = 0.0, 0
        for target, length in lists:
            own = de.DTensor(values[start:start + length].copy(), requires_grad=True)
            part = de.softmax_logloss(own, [(target, length)])
            de.backward(part)
            total += part.item()
            assert s.grad[start:start + length].tobytes() == own.grad.tobytes()
            start += length
        assert loss.item() == total

    def test_list_targets_and_lengths_are_checked(self):
        s = de.constant(np.zeros((5, 1)))
        # a target that would be a row of the next list
        with pytest.raises(de.ShapeError, match="target 2 is outside its list of 2"):
            de.softmax_logloss(s, [(2, 2), (0, 3)])
        with pytest.raises(de.ShapeError, match="target -1 is outside its list of 3"):
            de.softmax_logloss(s, [(0, 2), (-1, 3)])
        for lists in ([(0, 2), (0, 2)], [(0, 2), (0, 4)], []):
            with pytest.raises(de.ShapeError, match=r"column of the lists' \d+ rows, got \(5, 1\)"):
                de.softmax_logloss(s, lists)
        with pytest.raises(de.ShapeError, match="need a nonempty column"):
            de.softmax_logloss(de.constant(np.zeros((0, 1))), [])
        with pytest.raises(de.ShapeError, match="need a nonempty column"):
            de.softmax_logloss(de.constant(np.zeros((2, 2))), [(0, 2)])

    def test_relu_backward_sign_cases(self):
        x = de.DTensor(np.array([[-1.0, 2.0]]), requires_grad=True)
        out = de.dot(de.relu(x), de.constant([[3.0, 3.0]]))
        de.backward(out)
        assert x.grad.tolist() == [[0.0, 3.0]]

    def test_log_clamps_at_floor(self):
        out = de.log(de.constant([[0.0]]))
        assert out.item() == math.log(1e-12)
        x = de.DTensor(np.array([[0.0]]), requires_grad=True)
        de.backward(de.log(x))
        assert x.grad[0, 0] == 0.0  # inside the clamp the gradient vanishes

    def test_matvec_and_shapes(self):
        m = de.constant(np.arange(6.0).reshape(2, 3))
        v = de.constant(np.ones((3, 1)))
        assert de.matvec(m, v).values[:, 0].tolist() == [3.0, 12.0]
        with pytest.raises(de.ShapeError) as err:
            de.matmul(m, m)
        assert "(2, 3)" in str(err.value)


class TestOpGradients:
    @pytest.mark.parametrize("name,op,nudge", [
        ("relu", de.relu, 0.05),
        ("sigmoid", de.sigmoid, 0.0),
        ("tanh", de.tanh, 0.0),
        ("log", lambda x: de.log(de.sigmoid(x)), 0.0),
        ("scale", lambda x: de.scale(x, -2.5), 0.0),
        ("reshape", lambda x: de.reshape(x, x.values.size, 1), 0.0),
        ("sum_rows", de.sum_rows, 0.0),
    ])
    def test_unary_ops(self, name, op, nudge):
        rng = np.random.default_rng(sum(name.encode()))
        for _ in range(3):
            assert fd_check_unary(op, rng, nudge=nudge) < 1e-6

    def test_binary_ops(self):
        rng = np.random.default_rng(77)
        shapes = [(3, 4), (1, 5), (6, 2)]
        for rows, cols in shapes:
            for op in (de.add, de.sub, de.mul):
                a0 = rng.normal(size=(rows, cols))
                b0 = rng.normal(size=(rows, cols))

                def loss_of(av, bv):
                    a = de.DTensor(av.copy(), requires_grad=True)
                    b = de.DTensor(bv.copy(), requires_grad=True)
                    return a, b, de.dot(op(a, b), de.constant(np.ones((rows, cols))))

                a, b, loss = loss_of(a0, b0)
                de.backward(loss)
                h = 1e-6
                for idx in np.ndindex(a0.shape):
                    up = a0.copy(); up[idx] += h
                    down = a0.copy(); down[idx] -= h
                    numeric = (loss_of(up, b0)[2].item() - loss_of(down, b0)[2].item()) / (2 * h)
                    assert abs(a.grad[idx] - numeric) < 1e-6

    def test_matmul_concat_gather_segment(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=(3, 5))
        idx = np.array([0, 2, 2, 3, 1])
        seg = np.array([1, 0, 1, 2, 0])

        def build(av):
            a = de.DTensor(av.copy(), requires_grad=True)
            b = de.constant(b0)
            m = de.matmul(a, b)              # (4,5)
            g = de.gather_rows(m, idx)       # (5,5)
            c = de.concat_cols(g, g)         # (5,10)
            s = de.segment_sum(c, seg, 3)    # (3,10)
            return a, de.dot(s, de.constant(np.ones((3, 10))))

        a, loss = build(a0)
        de.backward(loss)
        h = 1e-6
        for idx2 in np.ndindex(a0.shape):
            up = a0.copy(); up[idx2] += h
            down = a0.copy(); down[idx2] -= h
            numeric = (build(up)[1].item() - build(down)[1].item()) / (2 * h)
            assert abs(a.grad[idx2] - numeric) < 1e-6

    def test_softmax_logloss_gradient(self):
        rng = np.random.default_rng(6)
        s0 = rng.normal(size=(5, 1))

        def build(sv):
            s = de.DTensor(sv.copy(), requires_grad=True)
            return s, de.softmax_logloss(s, [(2, 5)])

        s, loss = build(s0)
        de.backward(loss)
        h = 1e-6
        for i in range(5):
            up = s0.copy(); up[i, 0] += h
            down = s0.copy(); down[i, 0] -= h
            numeric = (build(up)[1].item() - build(down)[1].item()) / (2 * h)
            assert abs(s.grad[i, 0] - numeric) < 1e-6

    def test_stack_rows_routes_gradients(self):
        parts = [de.DTensor(np.array([[float(i), -float(i)]]), requires_grad=True)
                 for i in range(3)]
        stacked = de.stack_rows(parts)
        de.backward(de.dot(stacked, de.constant(np.arange(6.0).reshape(3, 2))))
        assert parts[0].grad.tolist() == [[0.0, 1.0]]
        assert parts[2].grad.tolist() == [[4.0, 5.0]]


    def test_stack_rows_accepts_multi_row_parts(self):
        parts = [de.DTensor(np.ones((r, 2)), requires_grad=True) for r in (2, 1, 3)]
        stacked = de.stack_rows(parts)
        assert stacked.shape == (6, 2)
        de.backward(de.dot(stacked, de.constant(np.arange(12.0).reshape(6, 2))))
        assert parts[0].grad.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert parts[2].grad.tolist() == [[6.0, 7.0], [8.0, 9.0], [10.0, 11.0]]
        with pytest.raises(de.ShapeError):
            de.stack_rows([de.constant(np.ones((1, 2))), de.constant(np.ones((1, 3)))])


class TestGatherRows:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12), cols=st.integers(0, 9),
           m=st.integers(0, 60), special=st.sampled_from([0.0, -0.0, np.inf, np.nan]),
           fortran=st.booleans())
    def test_backward_bitwise_equal_to_add_at(self, seed, rows, cols, m, special, fortran):
        # Repeated indices, signed zeros and infinities (whose sums can make
        # NaN) among the gradient rows, in either memory layout.
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, rows, size=m)
        g = rng.normal(size=(m, cols)) * 10.0 ** rng.uniform(-8, 8, size=(m, 1))
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.05] = special
        g[rng.random(g.shape) < 0.05] = -special
        if fortran:
            g = np.asfortranarray(g)
        a = de.DTensor(np.zeros((rows, cols)), requires_grad=True)
        want = np.zeros((rows, cols))
        with np.errstate(invalid="ignore"):
            de.backward(de.dot(de.gather_rows(a, idx), de.constant(g)))
            np.add.at(want, idx, g)
        assert a.grad.tobytes() == want.tobytes()

    def test_rejects_indices_out_of_range(self):
        a = de.constant(np.ones((3, 2)))
        assert de.gather_rows(a, [2, 2, 0]).shape == (3, 2)
        assert de.gather_rows(a, []).shape == (0, 2)
        for bad in ([3], [-1], [0, -3]):
            with pytest.raises(de.ShapeError, match="out of range for 3 rows"):
                de.gather_rows(a, bad)


class TestNoGrad:
    def test_records_no_graph_and_restores(self):
        w = de.DTensor(np.ones((2, 2)), requires_grad=True)
        x = de.constant(np.eye(2))
        with de.no_grad():
            y = de.relu(de.matmul(x, w))
            with de.no_grad():
                pass
            z = de.matmul(x, w)
        assert not y._parents and y._bwd is None and not z._parents
        assert np.array_equal(y.values, np.ones((2, 2)))
        after = de.matmul(x, w)
        assert after._parents
        de.backward(de.dot(after, de.constant(np.ones((2, 2)))))
        assert w.grad is not None

    def test_restores_after_exception(self):
        w = de.DTensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with de.no_grad():
                raise RuntimeError
        assert de.scale(w, 2.0)._parents


class TestBackwardBehavior:
    def test_linear_gradient_exact(self):
        store = de.ParamStore()
        rng = np.random.default_rng(0)
        w = store.create("w", 4, 1, rng)
        x = de.constant(np.arange(4.0).reshape(4, 1))
        de.backward(de.dot(w, x))
        assert np.array_equal(w.grad, x.values)

    def test_sum_relu_matches_differences(self):
        rng = np.random.default_rng(1)
        store = de.ParamStore()
        store.create("W", 6, 4, rng)
        x = de.constant(rng.normal(size=(3, 6)))

        def f(s):
            return de.dot(de.relu(de.matmul(x, s["W"])),
                          de.constant(np.ones((3, 4))))

        assert de.grad_check(f, store, h=1e-5) < 1e-6

    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "op-result"])
    def test_first_gradient_is_a_normalized_copy(self, leaf):
        # a leaf copies its first gradient as g + 0.0 and adds into the copy;
        # an op result keeps g itself and adds out of place
        x = de.DTensor(np.zeros((1, 2)), requires_grad=True)
        t = x if leaf else de.scale(x, 1.0)
        g = np.array([[-0.0, 1.0]])
        t.accumulate(g)
        assert (t.grad is g) is not leaf
        t.accumulate(g)
        assert g.tobytes() == np.array([[-0.0, 1.0]]).tobytes()
        assert t.grad.tobytes() == np.array([[0.0 if leaf else -0.0, 2.0]]).tobytes()

    def test_gradient_handed_to_two_parents_is_not_written(self):
        # s2's add hands the array s2 gets to both s1 and p; p gets a second
        # gradient from s1 before s1 passes its own on to q
        x = de.DTensor(np.array([[1.0, -2.0]]), requires_grad=True)
        y = de.DTensor(np.array([[0.5, 3.0]]), requires_grad=True)
        p, q = de.scale(x, 2.0), de.scale(y, 3.0)
        s1 = de.add(p, q)
        s2 = de.add(s1, p)
        de.backward(de.dot(s2, de.constant(np.ones((1, 2)))))
        assert x.grad.tolist() == [[4.0, 4.0]] and y.grad.tolist() == [[3.0, 3.0]]

    def test_backward_frees_every_gradient_but_the_leaves(self):
        w = de.DTensor(np.array([[1.0, -1.0], [2.0, 0.5]]), requires_grad=True)
        v = de.DTensor(np.array([[0.3], [-0.7]]), requires_grad=True)
        unused = de.DTensor(np.ones((1, 1)), requires_grad=True)
        x, ones = de.constant(np.eye(2)), de.constant(np.ones((2, 1)))
        h = de.relu(de.matmul(x, w))
        hv = de.matmul(h, v)
        loss = de.dot(de.add(hv, de.matmul(de.tanh(h), v)), ones)
        de.backward(loss)
        assert w.grad is not None and v.grad is not None and unused.grad is None
        for t in (x, ones, h, hv, loss):
            assert t.grad is None

    def test_no_gradient_computed_for_a_parent_that_needs_none(self, monkeypatch):
        calls = {"_mm": 0, "_mm_seq": 0, "_scatter_add": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(de, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(de, name, counted)
        leaf = de.DTensor(np.ones((3, 3)), requires_grad=True)
        const = de.constant(np.arange(9.0).reshape(3, 3))
        ones = de.constant(np.ones((3, 3)))

        de.backward(de.dot(de.matmul(const, leaf), ones))
        assert calls == {"_mm": 1, "_mm_seq": 1, "_scatter_add": 0}
        de.backward(de.dot(de.matmul(leaf, const), ones))
        assert calls == {"_mm": 3, "_mm_seq": 1, "_scatter_add": 0}
        de.backward(de.dot(de.mul(de.gather_rows(const, [2, 0, 2]), leaf), ones))
        assert calls == {"_mm": 3, "_mm_seq": 1, "_scatter_add": 0}
        de.backward(de.dot(de.gather_rows(leaf, [2, 0, 2]), ones))
        assert calls == {"_mm": 3, "_mm_seq": 1, "_scatter_add": 1}

    def test_shared_node_accumulates(self):
        x = de.DTensor(np.array([[3.0]]), requires_grad=True)
        y = de.mul(x, x)
        de.backward(y)
        assert x.grad[0, 0] == 6.0

    def test_non_scalar_root_rejected(self):
        with pytest.raises(de.ShapeError):
            de.backward(de.constant(np.zeros((2, 2))))

    def test_deterministic_forward_backward(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(8, 8))

        def run():
            store = de.ParamStore()
            w = store.create("w", 8, 8, np.random.default_rng(3))
            loss = de.dot(de.relu(de.matmul(de.constant(vals), w)),
                          de.constant(np.ones((8, 8))))
            de.backward(loss)
            return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2 and np.array_equal(g1, g2)


class TestOrderInvariance:
    def test_segment_sum_row_order(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(12, 5))
        seg = rng.integers(0, 4, size=12)
        base = de.segment_sum(de.constant(vals), seg, 4).values
        for _ in range(20):
            perm = rng.permutation(12)
            other = de.segment_sum(de.constant(vals[perm]), seg[perm], 4).values
            assert np.array_equal(base, other)

    def test_segment_sum_equals_per_segment_loop(self):
        def reference(vals, seg, n):
            # the per-segment loop segment_sum replaced: one value-sorted
            # column sum per nonempty segment
            out = np.zeros((n, vals.shape[1]))
            order = np.argsort(seg, kind="stable")
            sorted_seg = seg[order]
            bounds = np.flatnonzero(np.diff(sorted_seg)) + 1
            for s, e in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [seg.size]])):
                if s < e:
                    block = vals[order[s:e]]
                    out[sorted_seg[s]] = (block.sum(axis=0) if block.shape[0] <= 1
                                          else np.sort(block, axis=0).sum(axis=0))
            return out

        rng = np.random.default_rng(12)
        for trial in range(3000):
            n = int(rng.integers(1, 10))
            rows = int(rng.integers(0, 40 if trial % 10 else 400))
            cols = int(rng.choice([1, 1, 2, 3, 8]))
            seg = rng.integers(0, n, size=rows)     # leaves some segments empty
            vals = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
            u = rng.random((rows, cols))
            vals[u < 0.15] = 0.0
            vals[(u >= 0.15) & (u < 0.3)] = -0.0
            if trial % 3 == 0:
                vals[rng.random((rows, cols)) < 0.03] = np.nan
            got = de.segment_sum(de.constant(vals.reshape(rows, cols)), seg, n).values
            assert got.tobytes() == reference(vals, seg, n).tobytes(), trial

    def test_sum_rows_row_order(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(9, 3))
        base = de.sum_rows(de.constant(vals)).values
        for _ in range(20):
            perm = rng.permutation(9)
            assert np.array_equal(base, de.sum_rows(de.constant(vals[perm])).values)


class TestSegmentSumOracle:
    # finite values with signed zeros, subnormals, ties and overflow-prone
    # magnitudes; non-finite ones apart, since they send every segment to
    # np.sort, as does a segment of 5 or 6 rows
    FINITE = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-310, -3e-310,
              1e308, -1e308, 1.7e308]
    NON_FINITE = [np.inf, -np.inf, np.nan]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
           cols=st.sampled_from([1, 2, 3, 8]), non_finite=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_segment_sorted_sum(self, sizes, cols, non_finite, seed):
        # bitwise, NaN bits included: inf + -inf and np.nan are different NaNs
        rng = np.random.default_rng(seed)
        seg = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        vals = rng.normal(size=(seg.size, cols)) * 10.0 ** rng.integers(-5, 6, size=(seg.size, cols))
        pick = rng.random(vals.shape) < 0.5
        vals[pick] = rng.choice(self.FINITE + (self.NON_FINITE if non_finite else []),
                                size=int(pick.sum()))
        with np.errstate(over="ignore", invalid="ignore"):
            got = de.segment_sum(de.constant(vals.reshape(seg.size, cols)), seg, len(sizes)).values
            for s in range(len(sizes)):
                assert got[s].tobytes() == np.sort(vals[seg == s], axis=0).sum(axis=0).tobytes(), s
            plan = de.SegmentPlan(seg, len(sizes))
            by_plan = de.segment_sum(de.constant(vals.reshape(seg.size, cols)), plan, len(sizes))
        assert by_plan.values.tobytes() == got.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
           cols=st.sampled_from([1, 2, 3, 8, 9]), nan=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_scatter_add_equals_add_at(self, sizes, cols, nan, seed):
        # NaN bits included: np.add.at keeps the added NaN of two, a vector
        # loop the accumulated one
        rng = np.random.default_rng(seed)
        seg = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        vals = rng.normal(size=(seg.size, cols)) * 10.0 ** rng.integers(-5, 6, size=(seg.size, cols))
        pick = rng.random(vals.shape) < 0.5
        specials = self.FINITE + [np.inf, -np.inf] + ([np.nan, -np.nan] if nan else [])
        vals[pick] = rng.choice(specials, size=int(pick.sum()))
        want = np.zeros((len(sizes), cols))
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(want, seg, vals)
            got = de._scatter_add(seg, vals, len(sizes))
        assert got.tobytes() == want.tobytes()

    def test_one_plan_serves_finite_and_non_finite_values(self):
        # neither the plan nor the scatter-add holds a choice of path: each
        # call picks the network or np.sort, and np.bincount or np.add.at,
        # from its own values
        rng = np.random.default_rng(5)
        seg = np.array([0, 1, 0, 2, 1, 0, 3, 0])    # widths 4, 2, 1, 1 and an empty segment
        plan = de.SegmentPlan(seg, 5)
        for trial in range(12):
            vals = rng.normal(size=(seg.size, 3))
            if trial % 2:
                vals[rng.random(vals.shape) < 0.3] = rng.choice([np.inf, -np.inf, np.nan])
            with np.errstate(invalid="ignore"):
                by_ids = de.segment_sum(de.constant(vals), seg, 5).values
                by_plan = de.segment_sum(de.constant(vals), plan, 5).values
                scattered = np.zeros((5, 3))
                np.add.at(scattered, seg, vals)
                assert by_plan.tobytes() == by_ids.tobytes(), trial
                assert de._scatter_add(seg, vals, 5).tobytes() == scattered.tobytes(), trial
                for s in range(5):
                    want = np.sort(vals[seg == s], axis=0).sum(axis=0)
                    assert by_plan[s].tobytes() == want.tobytes(), (trial, s)

    def test_plan_must_fit_the_rows_and_segments(self):
        plan = de.SegmentPlan([0, 1, 1], 2)
        assert plan.index.tolist() == [[0, 1], [3, 2]]
        with pytest.raises(de.ShapeError, match="3 ids for 2 rows"):
            de.segment_sum(de.constant(np.ones((2, 1))), plan, 2)
        with pytest.raises(de.ShapeError, match="plan has 2 segments, expected 3"):
            de.segment_sum(de.constant(np.ones((3, 1))), plan, 3)
        with pytest.raises(de.ShapeError, match="out of range"):
            de.SegmentPlan([0, 2], 2)

    @pytest.mark.parametrize("size", [3, 4])
    def test_non_finite_segments_keep_the_sort(self, size):
        # sorted, -inf + inf makes a NaN with the sign bit set before np.nan
        # is added; np.minimum would spread np.nan's positive NaN instead
        vals = np.array([[np.nan], [np.inf], [-np.inf], [1.0]])[:size]
        with np.errstate(invalid="ignore"):
            got = de.segment_sum(de.constant(vals), np.zeros(size, dtype=int), 1).values
            assert got.tobytes() == np.sort(vals, axis=0).sum(axis=0).tobytes()
            assert got.tobytes() != np.array([np.nan]).tobytes()


class TestRowBlockedKernel:
    """``diffengine._mm``: each output row depends only on its own row of the
    left operand and on the right operand."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           k=st.one_of(st.sampled_from([0, 1, 2, 3, 32, 64, 70, 256]), st.integers(0, 256)),
           n=st.sampled_from([1, 2, 3, 64, 65]), rows=st.integers(0, 10),
           foreign=st.integers(0, 80), non_finite=st.booleans(), fortran=st.booleans(),
           transposed=st.booleans())
    def test_row_is_bitwise_the_same_among_any_rows(self, seed, k, n, rows, foreign,
                                                    non_finite, fortran, transposed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n, k)).T if transposed else rng.normal(size=(k, n))
        mine = rng.normal(size=(rows, k)) * 10.0 ** rng.uniform(-5, 4, (rows, 1))
        mine[rng.random((rows, k)) < 0.1] = -0.0
        other = rng.normal(size=(foreign, k)) * 10.0 ** rng.uniform(-300, 300, (foreign, 1))
        if non_finite and foreign:
            other[rng.random((foreign, k)) < 0.05] = np.inf
            other[rng.integers(foreign)] = np.nan
            other[rng.integers(foreign)] = -np.inf
        mixed = np.concatenate([mine, other])
        order = rng.permutation(len(mixed))
        a = np.asfortranarray(mixed[order]) if fortran else mixed[order]
        out = de._mm(a, b)
        assert out.shape == (len(mixed), n)
        alone = [de._mm(row[None], b).tobytes() for row in mine]
        at = np.argsort(order)
        assert [out[at[i]].tobytes() for i in range(rows)] == alone
        subset = de._mm(mine[::-1], b)
        assert [row.tobytes() for row in subset[::-1]] == alone

    @pytest.mark.parametrize("k, n", [(0, 3), (1, 1), (32, 64), (64, 65), (256, 2)])
    def test_every_tail_length(self, k, n):
        # Prefixes of 0..2 blocks end in every tail length, 0 and a full block included.
        rng = np.random.default_rng(k + n)
        a, b = rng.normal(size=(2 * de._ROW_BLOCK, k)), rng.normal(size=(k, n))
        full = de._mm(a, b)
        np.testing.assert_allclose(full, np.einsum("ij,jk->ik", a, b), rtol=1e-12, atol=1e-12)
        for m in range(2 * de._ROW_BLOCK + 1):
            assert de._mm(a[:m], b).tobytes() == full[:m].tobytes()
        # sums start at +0.0, so products of zeros never come out -0.0
        assert not np.signbit(de._mm(np.full((3, k), -0.0), np.abs(b))).any()

    @pytest.mark.parametrize("m", [1, 31, 33, 63])
    def test_non_finite_values_warn_nothing_and_match_einsum(self, m):
        # Tails of 1 and 31 rows. Overflow here is one-signed per element: an
        # FMA kernel may return an infinity where einsum's inf - inf is NaN.
        rng = np.random.default_rng(m)
        k, n = 8, 5
        big_a = np.abs(rng.normal(size=(m, k))) + 0.5
        big_a[::3], big_a[1::3] = 1e300, -1e300
        big_b = np.abs(rng.normal(size=(k, n))) + 0.5
        big_b[:, 0] = 1e300
        inf_a = rng.normal(size=(m, k))
        inf_a[::4, 0] = 0.0
        inf_b = rng.normal(size=(k, n))
        inf_b[0, 0], inf_b[0, 1], inf_b[1, 1], inf_b[2, 2] = np.inf, -np.inf, np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((big_a, big_b), (inf_a, inf_b)):
                got, want = de._mm(a, b), np.einsum("ij,jk->ik", a, b, optimize=False)
                for kind in (np.isfinite, np.isnan, np.isposinf, np.isneginf):
                    assert (kind(got) == kind(want)).all()
                assert not np.isfinite(got).all() and np.isfinite(got).any()

    def test_thread_count_changes_no_byte(self):
        # Shapes large enough for OpenBLAS to split a block's GEMM across threads.
        script = ("import hashlib, numpy as np\n"
                  "from rxnpred import diffengine as de\n"
                  "rng = np.random.default_rng(0)\n"
                  "for m, k, n in [(300, 256, 65), (200, 512, 64), (97, 32, 64), (64, 64, 1)]:\n"
                  "    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))\n"
                  "    print(hashlib.sha256(de._mm(a, b).tobytes()).hexdigest())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(de.__file__).resolve().parents[1])}
        digests = []
        for threads in ("1", "2"):
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True)
            digests.append(done.stdout.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1]


class TestGradCheck:
    def test_quadratic_is_exact(self):
        store = de.ParamStore()
        store.create("w", 5, 1, np.random.default_rng(0))
        store["w"].values[:] = 1.0

        def f(s):
            return de.dot(s["w"], s["w"])

        assert de.grad_check(f, store, h=1e-5) < 1e-10

    def test_rejects_bad_step(self):
        store = de.ParamStore()
        with pytest.raises(ValueError):
            de.grad_check(lambda s: de.constant([[0.0]]), store, h=0.0)


class TestAdam:
    def test_first_step_magnitude(self):
        store = de.ParamStore()
        w = store.create("w", 3, 1, np.random.default_rng(0))
        before = w.values.copy()
        w.grad = np.array([[1.0], [-2.0], [0.5]])
        state = de.AdamState(store, lr=0.01)
        de.adam_step(store, state)
        step = before - w.values
        # bias-corrected first step is lr * g / (|g| + eps): about lr per coord
        assert np.allclose(np.abs(step), 0.01, atol=1e-6)
        assert np.all(np.sign(step) == np.sign([[1.0], [-2.0], [0.5]]))

    def test_zero_or_missing_gradient_keeps_params(self):
        store = de.ParamStore()
        w = store.create("w", 2, 2, np.random.default_rng(1))
        before = w.values.copy()
        state = de.AdamState(store)
        de.adam_step(store, state)  # no grad at all
        assert np.array_equal(w.values, before)
        w.grad = np.zeros((2, 2))
        de.adam_step(store, state)
        assert np.array_equal(w.values, before)

    def test_converges_on_quadratic(self):
        store = de.ParamStore()
        w = store.create("w", 4, 1, np.random.default_rng(2))
        target = np.array([[1.0], [2.0], [-1.0], [0.5]])
        state = de.AdamState(store, lr=0.05, decay=1.0)
        for _ in range(200):
            store.zero_grads()
            diff = de.sub(store["w"], de.constant(target))
            de.backward(de.dot(diff, diff))
            de.adam_step(store, state)
        final = float(np.sum((w.values - target) ** 2))
        assert final < 1e-6

    def test_epoch_decay(self):
        store = de.ParamStore()
        store.create("w", 1, 1, np.random.default_rng(0))
        state = de.AdamState(store, lr=1.0, decay=0.9)
        state.end_epoch()
        state.end_epoch()
        assert abs(state.lr - 0.81) < 1e-12

    def test_no_nans_under_extreme_gradients(self):
        store = de.ParamStore()
        w = store.create("w", 2, 1, np.random.default_rng(3))
        state = de.AdamState(store, lr=0.1)
        for value in (1e30, -1e30, 1e-30):
            w.grad = np.full((2, 1), value)
            de.adam_step(store, state)
            assert np.all(np.isfinite(w.values))


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        store = de.ParamStore(metadata={"kind": "demo", "hidden": "8"})
        store.create("layer.W", 7, 3, rng)
        store.create("layer.b", 1, 3, init="zeros")
        path = tmp_path / "model.ckpt"
        store.save(path)
        text = path.read_text()
        assert text.startswith("REXGEN-CKPT v1\n")
        assert "# hidden=8" in text
        loaded = de.ParamStore.load(path)
        assert loaded.metadata == store.metadata
        for name in store.names():
            assert np.array_equal(loaded[name].values, store[name].values)
        # a second save of the loaded store is byte-identical
        path2 = tmp_path / "again.ckpt"
        loaded.save(path2)
        assert path2.read_bytes() == path.read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("NOT-A-CKPT\n")
        with pytest.raises(ValueError):
            de.ParamStore.load(bad)

    def test_rejects_truncated_tensor(self, tmp_path):
        bad = tmp_path / "trunc.ckpt"
        bad.write_text("REXGEN-CKPT v1\nw 2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ValueError):
            de.ParamStore.load(bad)

    def test_truncated_checkpoint_names_file_and_line(self, tmp_path):
        from rxnpred.ranker import RankerModel
        path = tmp_path / "ranker.ckpt"
        RankerModel.create("wldn", hidden=4, depth=1, seed=0).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{len(lines) - 2}: truncated")):
            de.ParamStore.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.ckpt"
        path.write_text(f"REXGEN-CKPT v1\nw 2 2\n1.0 2.0\n3.0 {bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: non-finite")):
            de.ParamStore.load(path)

    def test_negative_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("REXGEN-CKPT v1\nw -1 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad tensor header")):
            de.ParamStore.load(path)

    def test_unparsable_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("REXGEN-CKPT v1\nw 1 2\n1.0 x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: bad value")):
            de.ParamStore.load(path)

    @pytest.mark.parametrize("text, line, message", [
        ("w 1 1\n1.0\nw 1 1\n2.0\n", 4, "duplicate tensor 'w'"),
        ("# kind=center\n# kind=ranker\nw 1 1\n1.0\n", 3, "duplicate metadata key 'kind'"),
        ("# novalue\nw 1 1\n1.0\n", 2, "expected '# key=value', got '# novalue'"),
        ("x 1 100000000000000\n1.0\n", 3, "expected 100000000000000 values, got 1")],
        ids=["duplicate-tensor", "duplicate-key", "key-without-value", "header-wider-than-rows"])
    def test_malformed_checkpoint_names_file_and_line(self, tmp_path, text, line, message):
        # save never writes these, so a file holding one was not made by it
        path = tmp_path / "bad.ckpt"
        path.write_text("REXGEN-CKPT v1\n" + text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            de.ParamStore.load(path)

    @pytest.mark.parametrize("variant, name", [
        ("local", "wln.U2"), ("global", "att.Pb"), ("wln", "mol.U2"),
        ("wldn", "diff.Vf"), ("wldn", "wldn.M")])
    def test_mis_shaped_tensor_rejected_at_load(self, tmp_path, variant, name):
        model_cls = CenterModel if variant in ("local", "global") else RankerModel
        path = tmp_path / "model.ckpt"
        store = model_cls.create(variant, hidden=8, depth=1, seed=0).store
        rows, cols = store[name].shape
        store.params[name] = de.DTensor(np.ones((rows, cols - 1)), requires_grad=True)
        store.save(path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: tensor {name!r} has shape {(rows, cols - 1)}, "
                f"expected {(rows, cols)}")):
            model_cls.load(path)

    @pytest.mark.parametrize("variant, name", [
        ("local", "wln.Win"), ("global", "att.u"), ("wln", "sum.u"), ("wldn", "wldn.M")])
    def test_missing_tensor_rejected_at_load(self, tmp_path, variant, name):
        model_cls = CenterModel if variant in ("local", "global") else RankerModel
        path = tmp_path / "model.ckpt"
        store = model_cls.create(variant, hidden=8, depth=1, seed=0).store
        shape = store[name].shape
        del store.params[name]
        store.save(path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: missing tensor {name!r}, expected shape {shape}")):
            model_cls.load(path)

    @staticmethod
    def saved_with(tmp_path, variant, key, value):
        """A fresh checkpoint of ``variant`` whose metadata ``key`` is set to
        ``value`` (deleted when None), and the class that loads it."""
        model_cls = CenterModel if variant in ("local", "global") else RankerModel
        store = model_cls.create(variant, hidden=8, depth=1, seed=0).store
        assert key in store.metadata
        if value is None:
            del store.metadata[key]
        else:
            store.metadata[key] = value
        path = tmp_path / "model.ckpt"
        store.save(path)
        return model_cls, path

    @pytest.mark.parametrize("variant, key", [
        ("local", "wln.depth"), ("global", "hidden"), ("wln", "mol.in_dim"),
        ("wldn", "diff.variant"), ("wldn", "activation"), ("wln", "mol.project")])
    def test_missing_metadata_rejected_at_load(self, tmp_path, variant, key):
        model_cls, path = self.saved_with(tmp_path, variant, key, None)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing metadata {key!r}")):
            model_cls.load(path)

    @pytest.mark.parametrize("variant, key", [
        ("local", "hidden"), ("global", "wln.depth"), ("wln", "mol.hidden"),
        ("wldn", "diff.in_dim")])
    def test_non_integer_metadata_rejected_at_load(self, tmp_path, variant, key):
        model_cls, path = self.saved_with(tmp_path, variant, key, "four")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: metadata {key}='four' is not a valid int")):
            model_cls.load(path)

    @pytest.mark.parametrize("variant, key, value", [
        ("local", "activation", "tanh"), ("wldn", "activation", "tanh"),
        ("global", "wln.activation", "tanh"), ("wln", "mol.activation", "tanh"),
        ("local", "include_charge", "1"), ("wldn", "include_charge", "1"),
        ("global", "wln.project", "0"), ("wln", "mol.project", "0"),
        ("wldn", "diff.project", "1"), ("local", "variant", "wldn"),
        ("wln", "variant", "global"), ("global", "wln.variant", "bogus"),
        ("wldn", "mol.variant", "bogus")])
    def test_unsupported_setting_rejected_at_load(self, tmp_path, variant, key, value):
        # The networks always use ReLU, no charge features, and project
        # exactly when their messages are concat, and each model knows its
        # own variants; a file recording anything else was made for another
        # network and must not load as this one.
        model_cls, path = self.saved_with(tmp_path, variant, key, value)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: metadata {key}={value!r} is not supported")):
            model_cls.load(path)

    @pytest.mark.parametrize("variant, key", [
        ("local", "wln.depth"), ("wln", "mol.depth"), ("wldn", "diff.depth")])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_rejected_at_load(self, tmp_path, variant, key, depth):
        # Such a file would otherwise score as a network of no rounds.
        model_cls, path = self.saved_with(tmp_path, variant, key, depth)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: metadata {key} must be >= 1, got {depth}")):
            model_cls.load(path)

    def test_depth_below_one_rejected_at_create(self):
        with pytest.raises(ValueError, match=r"^depth must be >= 1, got 0$"):
            CenterModel.create("local", hidden=8, depth=0)

    @pytest.mark.parametrize("variant, key", [
        ("global", "wln.depth"), ("wln", "mol.depth"), ("wldn", "diff.depth")])
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 10 ** 9])
    def test_depth_above_max_rejected_at_load(self, tmp_path, variant, key, depth):
        # Such a file would otherwise run that many rounds per embedding.
        model_cls, path = self.saved_with(tmp_path, variant, key, str(depth))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: metadata {key} must be <= {MAX_DEPTH}, got {depth}")):
            model_cls.load(path)

    def test_depth_bound_at_create_and_in_config(self, tmp_path):
        # One round per bond of the longest path an accepted molecule can have.
        assert MAX_DEPTH == MAX_ATOMS - 1
        for model_cls in (CenterModel, RankerModel):
            with pytest.raises(ValueError, match=rf"^depth must be <= {MAX_DEPTH}, got 150$"):
                model_cls.create(model_cls.VARIANTS[0], hidden=2, depth=MAX_DEPTH + 1)
            path = tmp_path / f"{model_cls.__name__}.ckpt"
            model_cls.create(model_cls.VARIANTS[-1], hidden=2, depth=MAX_DEPTH).save(path)
            assert model_cls.load(path).store.metadata  # the bound itself loads
        assert RunConfig(depth=MAX_DEPTH).depth == MAX_DEPTH
        with pytest.raises(ValueError, match=f"depth must be at most {MAX_DEPTH}, got 150"):
            RunConfig(depth=MAX_DEPTH + 1)

    @pytest.mark.parametrize("model_cls", [CenterModel, RankerModel])
    @pytest.mark.parametrize("hidden", [0, -1])
    def test_hidden_below_one_rejected_at_create(self, model_cls, hidden):
        # Such a width would otherwise fail inside xavier (division by zero
        # or the square root of a negative number).
        for variant in model_cls.VARIANTS:
            with pytest.raises(ValueError, match=rf"^hidden must be >= 1, got {hidden}$"):
                model_cls.create(variant, hidden=hidden, depth=2)

    @pytest.mark.parametrize("variant, key, value, expected", [
        ("local", "wln.in_dim", 10, ATOM_FEATURE_DIM), ("wln", "mol.in_dim", 10, ATOM_FEATURE_DIM),
        ("wldn", "diff.in_dim", 4, 8), ("global", "wln.hidden", 16, 8),
        ("wldn", "mol.hidden", 16, 8), ("wldn", "diff.hidden", 16, 8)])
    def test_network_sizes_must_match_the_model(self, tmp_path, variant, key, value, expected):
        # A projecting network's input matrix is resized to the recorded
        # in_dim, so its tensor shapes agree with its metadata; the file
        # must still be refused, as the model feeds it other sizes.
        model_cls = CenterModel if variant in ("local", "global") else RankerModel
        store = model_cls.create(variant, hidden=8, depth=1, seed=0).store
        store.metadata[key] = str(value)
        prefix = key.split(".")[0]
        if key.endswith("in_dim") and f"{prefix}.Win" in store:
            store.params[f"{prefix}.Win"] = de.DTensor(np.ones((value, 8)), requires_grad=True)
        path = tmp_path / "model.ckpt"
        store.save(path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: metadata {key}={value} does not match the model's {expected}")):
            model_cls.load(path)

    def test_in_memory_store_errors_name_no_file(self):
        store = de.ParamStore(metadata={"hidden": "8"})
        assert store.meta("hidden", int) == 8
        with pytest.raises(ValueError, match=r"^missing metadata 'depth'$"):
            store.meta("depth", int)
        with pytest.raises(ValueError, match=r"^metadata hidden='8' is not supported; "
                                             r"expected '4' or '16'$"):
            store.meta("hidden", allowed=("4", "16"))

    def test_duplicate_and_bad_names_rejected(self):
        store = de.ParamStore()
        store.create("w", 1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            store.create("w", 1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            store.create("bad name", 1, 1, np.random.default_rng(0))
