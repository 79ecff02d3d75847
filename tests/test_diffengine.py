import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnpred import diffengine as de
from rxnpred.center import CenterModel
from rxnpred.ranker import RankerModel


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
            loss = de.softmax_logloss(de.constant(np.zeros((4, 1))), target)
            assert abs(loss.item() - math.log(4)) < 1e-15

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
            return s, de.softmax_logloss(s, 2)

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


class TestGatherMatmul:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12),
           inner=st.integers(1, 9), cols=st.integers(1, 9), m=st.integers(0, 40),
           fortran=st.booleans())
    def test_bitwise_equal_to_gather_then_matmul(self, seed, rows, inner, cols, m, fortran):
        # Two projections of one (a, w) summed, as the center head uses them;
        # indices repeat whenever m > rows and are empty at m == 0.
        rng = np.random.default_rng(seed)
        a0 = rng.normal(size=(rows, inner)) * (rng.random((rows, inner)) < 0.8)
        a0[rng.random((rows, inner)) < 0.1] = -0.0
        if fortran:
            a0 = np.asfortranarray(a0)
        w0 = rng.normal(size=(inner, cols))
        iu, iv = rng.integers(0, rows, size=m), rng.integers(0, rows, size=m)
        head = de.constant(rng.normal(size=(m, cols)))

        def run(project):
            a = de.DTensor(a0.copy(order="A"), requires_grad=True)
            w = de.DTensor(w0.copy(), requires_grad=True)
            out = de.add(project(a, w, iu), project(a, w, iv))
            de.backward(de.dot(de.relu(out), head))
            return [x.tobytes() for x in (out.values, a.grad, w.grad)]

        fused = run(de.gather_matmul)
        reference = run(lambda a, w, idx: de.matmul(de.gather_rows(a, idx), w))
        assert fused == reference

    def test_rejects_bad_shapes_and_indices(self):
        a, w = de.constant(np.ones((3, 2))), de.constant(np.ones((2, 4)))
        assert de.gather_matmul(a, w, [2, 2, 0]).shape == (3, 4)
        assert de.gather_matmul(a, w, []).shape == (0, 4)
        with pytest.raises(de.ShapeError):
            de.gather_matmul(a, de.constant(np.ones((3, 4))), [0])
        with pytest.raises(de.ShapeError):
            de.gather_matmul(a, w, [3])
        with pytest.raises(de.ShapeError):
            de.gather_matmul(a, w, [-1])


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

    @pytest.mark.parametrize("size", [3, 4])
    def test_non_finite_segments_keep_the_sort(self, size):
        # sorted, -inf + inf makes a NaN with the sign bit set before np.nan
        # is added; np.minimum would spread np.nan's positive NaN instead
        vals = np.array([[np.nan], [np.inf], [-np.inf], [1.0]])[:size]
        with np.errstate(invalid="ignore"):
            got = de.segment_sum(de.constant(vals), np.zeros(size, dtype=int), 1).values
            assert got.tobytes() == np.sort(vals, axis=0).sum(axis=0).tobytes()
            assert got.tobytes() != np.array([np.nan]).tobytes()


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
        ("global", "wln.activation", "tanh"), ("wln", "diff.activation", "tanh"),
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
