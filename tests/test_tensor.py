"""Tensor core: op semantics, FLOP accounting, gradients, checkpoints.

`_OP_CASES` is the one op-contract registry: every public op of tensor.py
and the graph ops rel_aggregate and weighted_aggregate, each checked at
Hypothesis-drawn dims for its gradients, charge, NaN handling, dtypes,
retained sweeps, no_grad behaviour and which inputs its tape keeps alive.
"""

import functools
import inspect
import json
import math
import re
import struct
import subprocess
import sys
import threading
import weakref
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmp import graph as graph_module
from relmp import tensor as T
from relmp.errors import (ConfigError, ContractError, DataError, NumericError,
                          ShapeError)
from relmp.graph import RelGraph, rel_aggregate, weighted_aggregate
from relmp.oracles import depthwise_conv_oracle, matmul_oracle
from relmp.tensor import (Tensor, add, bce_with_logits, concat_cols, concat_rows,
                          count_flops, counting_paused,
                          cross_entropy_with_logits, default_dtype,
                          depthwise_conv2d, finite_difference_check, gather_rows,
                          gelu, grad_enabled, hadamard, linear, load_checkpoint,
                          matmul, mean_cols, mean_rows, no_grad, relu, reshape,
                          save_checkpoint, slice_cols, slice_rows, sum_all,
                          tile_cols, tile_rows)


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([[1.0, 2.0]])
        assert t.data.dtype == np.float32

    def test_default_dtype_context_switches(self):
        with default_dtype(np.float64):
            t = Tensor([[1.0]])
        assert t.data.dtype == np.float64
        assert Tensor([[1.0]]).data.dtype == np.float32

    def test_flat_size_matches_shape(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.size == 12 and t.shape == (3, 4)

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_nonfinite_op_result_raises(self):
        big = Tensor([[1e30]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            hadamard(big, big)  # overflows float32 to inf


class TestMatmul:
    def test_identity_is_exact(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = matmul(a, eye)
        assert np.array_equal(out.data, a.data)

    def test_identity_associativity_exact(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float64):
            a = Tensor(rng.normal(size=(4, 5)))
            b = Tensor(rng.normal(size=(5, 3)))
            eye = Tensor(np.eye(5))
        left = matmul(matmul(a, eye), b)
        right = matmul(a, matmul(eye, b))
        direct = matmul(a, b)
        assert np.array_equal(left.data, direct.data)
        assert np.array_equal(right.data, direct.data)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        for m, k, n in [(3, 4, 5), (1, 7, 2), (6, 1, 3)]:
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            with default_dtype(np.float64):
                out = matmul(Tensor(a), Tensor(b))
            assert np.allclose(out.data, matmul_oracle(a, b), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def chained_linear(a, w, b):
    """`tensor.linear` as the two recorded ops it replaces: a charged matmul,
    then a row-broadcast bias add that is not charged."""
    y = matmul(a, w)
    with counting_paused():
        return add(y, b)


class TestLinear:
    def run(self, op):
        """Output, per-kind FLOPs and leaf gradients of `op` in float32, on an
        input that a second matmul also consumes (the gated layer's input
        feeds w_in, w_alpha and w_self)."""
        r = np.random.default_rng(4)
        z, w, b, w2 = (Tensor(r.normal(size=s), requires_grad=True)
                       for s in [(5, 4), (4, 3), (3,), (4, 3)])
        with count_flops() as counter:
            out = op(z, w, b)
            loss = sum_all(hadamard(out, matmul(z, w2)))
        loss.backward()
        return out.data, counter.per_op, [t.grad for t in (z, w, b, w2)]

    def test_matches_the_matmul_and_paused_add_chain_bitwise(self):
        out, flops, grads = self.run(linear)
        want_out, want_flops, want_grads = self.run(chained_linear)
        assert out.dtype == np.float32
        assert np.array_equal(out, want_out)
        assert flops == want_flops
        assert flops["matmul"] == 2 * (2 * 5 * 3 * 4)
        for got, want in zip(grads, want_grads):
            assert got.dtype == np.float32 and np.array_equal(got, want)

    @pytest.mark.parametrize("shapes", [
        [(3, 4), (4, 2), (3,)], [(3, 4), (4, 2), (1, 2)],
        [(3, 4), (3, 2), (2,)], [(4,), (4, 2), (2,)]])
    def test_bad_shapes_are_shape_errors(self, shapes):
        with pytest.raises(ShapeError):
            linear(*(Tensor(np.ones(s)) for s in shapes))


class TestElementwise:
    def test_hadamard_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(hadamard(a, b).data, [[5.0, 12.0], [21.0, 32.0]])
        row = hadamard(Tensor(np.ones((3, 2))), Tensor([10.0, 20.0]))
        assert np.array_equal(row.data, [[10.0, 20.0]] * 3)

    def test_hadamard_bad_broadcast(self):
        with pytest.raises(ShapeError):
            hadamard(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1))))

    @pytest.mark.parametrize("op", [concat_rows, concat_cols])
    def test_concat_of_a_vector_is_a_shape_error(self, op):
        # the first part's shape was read before its rank was checked
        with pytest.raises(ShapeError):
            op([Tensor(np.ones(3)), Tensor(np.ones(3))])

    def test_tiles_materialize(self):
        out = tile_rows(Tensor([[1.0, 2.0, 3.0]]), 4)
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]] * 4)
        out = tile_cols(Tensor([[1.0], [2.0]]), 3)
        assert np.array_equal(out.data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    def test_reductions(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert float(sum_all(x).data) == 15.0
        assert np.allclose(mean_rows(x).data, [[1.5, 2.5, 3.5]])
        assert np.allclose(mean_cols(x).data, [[1.0], [4.0]])


class TestCounterDiscipline:
    def test_total_equals_per_op_sum(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 4)))
        with count_flops() as c:
            y = matmul(x, x)
            y = hadamard(y, x)
            relu(y)
        assert c.total == sum(c.per_op.values())

    def test_identical_runs_identical_maps(self):
        def run():
            x = Tensor(np.full((3, 3), 0.5))
            with count_flops() as c:
                y = matmul(x, x)
                gelu(hadamard(y, x))
            return c.snapshot()

        assert run() == run()

    def test_counting_paused_excludes(self):
        x = Tensor(np.ones((2, 2)))
        with count_flops() as c:
            hadamard(x, x)
            with counting_paused():
                hadamard(x, x)
                matmul(x, x)
        assert c.total == 4

    def test_independent_counters_nest(self):
        x = Tensor(np.ones((2, 2)))
        with count_flops() as outer:
            hadamard(x, x)
            with count_flops() as inner:
                hadamard(x, x)
        assert outer.total == 4 and inner.total == 4


class TestDepthwiseConv:
    def test_against_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 6, 3))
        k = rng.normal(size=(3, 3, 3))
        with default_dtype(np.float64):
            out = depthwise_conv2d(Tensor(x), Tensor(k))
        assert np.allclose(out.data, depthwise_conv_oracle(x, k), rtol=1e-12, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            depthwise_conv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((2, 2, 1))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            depthwise_conv2d(Tensor(np.ones((4, 4, 2))), Tensor(np.ones((3, 3, 3))))


    def test_backward_keeps_no_padded_copy(self):
        x = Tensor(np.ones((4, 5, 2)), requires_grad=True)
        out = depthwise_conv2d(x, Tensor(np.ones((3, 3, 2)), requires_grad=True))
        held = [c.cell_contents for c in out._node.backward.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.shape == (6, 7, 2)
                       for v in held)


class TestNoGrad:
    def test_mode_restored_after_exception(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the scope")
        assert grad_enabled() and hadamard(x, x).requires_grad

    def test_nested_scopes_restore_the_outer_mode(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
            assert not hadamard(x, x).requires_grad
        assert grad_enabled() and hadamard(x, x).requires_grad

    def test_mode_is_per_thread(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with no_grad():
                entered.set()
                checked.wait(timeout=10)
                seen["worker"] = hadamard(x, x).requires_grad

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=10)
        seen["main"] = hadamard(x, x).requires_grad
        checked.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == {"main": True, "worker": False}

        with no_grad():
            thread = threading.Thread(
                target=lambda: seen.update(fresh=hadamard(x, x).requires_grad))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive() and seen["fresh"] is True

    def test_backward_on_a_no_grad_result_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            loss = sum_all(hadamard(x, x))
        with pytest.raises(ContractError):
            loss.backward()
        assert x.grad is None


class TestBackward:
    def test_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = hadamard(x, x)
        with pytest.raises(ContractError):
            y.backward()

    def test_graph_consumed_unless_retained(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = sum_all(hadamard(x, x))
        loss.backward()
        with pytest.raises(ContractError):
            loss.backward()

    def test_retain_graph_allows_reuse(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = sum_all(hadamard(x, x))
        loss.backward(retain_graph=True)
        first = x.grad.copy()
        x.zero_grad()
        loss.backward(retain_graph=True)
        assert np.array_equal(first, x.grad)

    def test_grad_accumulates_across_uses(self):
        with default_dtype(np.float64):
            x = Tensor(np.array([[2.0]]), requires_grad=True)
        loss = sum_all(hadamard(x, x))  # d/dx x^2 = 2x
        loss.backward()
        assert np.allclose(x.grad, [[4.0]])

    def test_leaf_root_accumulates_across_calls(self):
        x = Tensor([[3.0]], requires_grad=True)
        x.backward()
        x.backward()
        assert np.array_equal(x.grad, [[2.0]])

    def test_consumed_nodes_are_released_during_the_sweep(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)

        def probe_backward(g):
            # runs last: every node recorded after the probe is consumed by now
            assert released() is None, "a consumed node's data is still alive"
            x._node._accumulate(g)

        probe = T._result(x.data * 1.0, "probe", (x,), probe_backward)
        mid = relu(T.mul_scalar(probe, 2.0))
        released = weakref.ref(mid.data)
        loss = sum_all(mid)
        del mid, probe
        loss.backward()
        assert released() is None
        assert np.array_equal(x.grad, np.full((4, 4), 2.0, np.float32))

    @pytest.mark.parametrize("retain", [False, True])
    def test_interior_grads_kept_only_when_retained(self, retain):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        sq = hadamard(x, x)
        loss = sum_all(sq)
        loss.backward(retain_graph=retain)
        assert np.array_equal(x.grad, np.full((2, 2), 2.0, np.float32))
        if not retain:
            assert sq.grad is None and loss.grad is None
            return
        assert np.array_equal(sq.grad, np.ones((2, 2)))
        assert np.array_equal(loss.grad, np.ones(()))
        loss.backward(retain_graph=True)
        assert np.array_equal(sq.grad, np.ones((2, 2)))
        assert np.array_equal(x.grad, np.full((2, 2), 4.0, np.float32))

    def test_leaves_of_one_add_own_their_grad_buffers(self):
        # a leaf's .grad is user-visible and must not alias another
        # tensor's gradient
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        sum_all(add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("op", [lambda t: T.add_scalar(t, 1.0),
                                    lambda t: reshape(t, (3, 2))],
                             ids=["add_scalar", "reshape"])
    def test_unary_leaf_gradient_owns_its_buffer(self, op):
        # these formulas return g itself or a view of it: the leaf copies it,
        # so it shares no memory with the retained interior gradient
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = op(a)
        sum_all(hadamard(out, Tensor(np.full(out.shape, 2.0)))).backward(
            retain_graph=True)
        assert not np.shares_memory(a.grad, out.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("indices", [
        [3, 0, 3, 3, 5, 0, 1],      # duplicates; rows 2 and 4 untouched
        [],                         # empty: an all-zero gradient
        list(range(7))[::-1],       # each row once, in reverse
        [6] * 40,                   # one row summed forty times
    ], ids=["duplicates", "empty", "permutation", "one_row"])
    def test_gather_backward_equals_a_sequential_scatter_add(self, dtype, indices):
        # the scatter product must round each row's sum exactly as np.add.at,
        # which adds the incoming rows one by one in index order from zero
        r = np.random.default_rng(len(indices))
        with default_dtype(dtype):
            x = Tensor(r.normal(size=(7, 5)), requires_grad=True)
        g = r.normal(size=(len(indices), 5)).astype(dtype) * 1e3
        picked = gather_rows(x, indices)
        with default_dtype(dtype):
            sum_all(hadamard(picked, Tensor(g))).backward()
        want = np.zeros((7, 5), dtype=dtype)
        np.add.at(want, np.asarray(indices, dtype=np.int64), g)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == want.tobytes()

    def test_gather_rejects_bad_indices(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(IndexError):
            gather_rows(x, [0, 3])
        for indices in ([[0, 1]], 1):
            with pytest.raises(ShapeError):
                gather_rows(x, indices)


# -- gradients handed over without a copy ------------------------------------------


def _share_nothing(grads, held):
    """No gradient shares memory with another, nor with an array in `held`."""
    for i, x in enumerate(grads):
        for y in grads[i + 1:] + held:
            assert not np.shares_memory(x, y)


def _swept_twice(loss, leaves):
    """Leaf gradients of two retained sweeps; they differ if a closure wrote
    into an array that the retained tape still holds."""
    sweeps = []
    for _ in range(2):
        for t in leaves:
            t.zero_grad()
        loss.backward(retain_graph=True)
        sweeps.append([None if t.grad is None else t.grad.copy() for t in leaves])
    return sweeps


def _weighted_aggregate_reference(graph, z, scores, channel, g):
    """weighted_aggregate as `rel_aggregate` and raw NumPy, in the formulas
    and the node-major layout that the fused op must reproduce bit for bit:
    (output, score, feature and channel gradients)."""
    (v, r), c = scores.shape, z.shape[1]
    with default_dtype(z.dtype):
        leaf = Tensor(z, requires_grad=True)
    slots = rel_aggregate(graph, leaf)
    wide = slots.data.reshape(v, r * c)
    terms = (wide * channel).reshape(v, r, c) * scores[:, :, None]
    out = terms[:, 0].copy()
    for k in range(1, r):
        out += terms[:, k]
    g_scores = ((wide * channel).reshape(v, r, c) * g[:, None, :]).sum(axis=2)
    gw = (g[:, None, :] * scores[:, :, None]).reshape(v, r * c)
    # rel_aggregate's closure gets the slots' gradient in their dtype; the
    # product with ones hands it on unchanged
    with default_dtype(z.dtype):
        g_slots = Tensor((gw * channel).reshape(v * r, c))
    sum_all(hadamard(slots, g_slots)).backward()
    return (out, g_scores, leaf.grad,
            (gw * wide).sum(axis=0).reshape(channel.shape))


class TestCopyFreeBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("op", ["linear", "matmul"])
    def test_weight_gradient_equals_the_transposed_product(self, op, rows, dtype):
        # the zero columns make products of +0.0 and a negative, where a
        # broadcast product gives -0.0 and a GEMM +0.0
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 7))
        x[:, ::3] = 0.0
        with default_dtype(dtype):
            a = Tensor(x, requires_grad=True)
            w = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
            b = Tensor(np.zeros(5), requires_grad=True)
            gy = Tensor(rng.normal(size=(rows, 5)))
        out = linear(a, w, b) if op == "linear" else matmul(a, w)
        sum_all(hadamard(out, gy)).backward()
        want = a.data.T @ gy.data
        assert w.grad.dtype == dtype
        assert w.grad.tobytes() == want.tobytes()
        assert a.grad.tobytes() == (gy.data @ w.data.T).tobytes()

    @pytest.mark.parametrize("rows", [1, 4])
    def test_linear_leaf_gradients_own_their_buffers(self, rows):
        rng = np.random.default_rng(rows)
        a, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in [(rows, 6), (6, 3), (3,)])
        forward = [t.data.copy() for t in (a, w, b)]
        out = linear(a, w, b)
        loss = sum_all(hadamard(out, Tensor(rng.normal(size=(rows, 3)))))
        first, second = _swept_twice(loss, [a, w, b])
        _share_nothing([a.grad, w.grad, b.grad],
                       [out.grad, out.data, a.data, w.data, b.data])
        for got, want in zip(first, second):
            assert got.tobytes() == want.tobytes()
        for t, data in zip((a, w, b), forward):
            assert t.data.tobytes() == data.tobytes()

    def test_aggregated_leaf_gradient_owns_its_buffer(self):
        rng = np.random.default_rng(3)
        graph = RelGraph(6, 3, [(s, d, r) for s in range(6) for d in range(6)
                                for r in range(3) if (s + 2 * d + r) % 4 == 0])
        z = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        forward = z.data.copy()
        out = rel_aggregate(graph, z)
        loss = sum_all(hadamard(out, Tensor(rng.normal(size=(18, 5)))))
        first, second = _swept_twice(loss, [z])
        degrees = graph._aggregation_ops(z.dtype)[1]
        _share_nothing([z.grad], [out.grad, out.data, z.data, degrees])
        assert first[0].tobytes() == second[0].tobytes()
        assert z.data.tobytes() == forward.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    # "uniform" scores are the uniform ablation's constant 1/R
    @pytest.mark.parametrize("scored, needs", [
        (scored, needs) for scored in (True, False)
        for needs in (("z", "scores", "channel"), ("z",), ("scores",),
                      ("channel",))
        if scored or needs != ("scores",)],
        ids=lambda x: ("scored" if x else "uniform") if isinstance(x, bool)
        else "+".join(x))
    @pytest.mark.parametrize("c", [4, 1])
    # groups of 1, 2 and 4 of the 9 relations (the last group of 4 holds one),
    # or the default block, which holds all 9
    @pytest.mark.parametrize("group", [None, 1, 2, 4],
                             ids=lambda n: f"groups-of-{n or 'all'}")
    def test_weighted_aggregate_matches_its_raw_formulas(self, group, c, scored,
                                                         needs, dtype, monkeypatch):
        v, r = 11, 9
        graph = _graph(v, r)
        if group:
            monkeypatch.setattr(graph_module, "AGGREGATE_BLOCK",
                                group * graph.num_dst * c)
        sizes = [r1 - r0 for r0, r1 in
                 graph_module._relation_groups(r, graph.num_dst * c)]
        assert sizes == {None: [9], 1: [1] * 9, 2: [2, 2, 2, 2, 1],
                         4: [4, 4, 1]}[group]
        rng = np.random.default_rng(9)
        names = ("z", "scores", "channel")
        shapes = [(v, c), (v, r), (1, r * c)]
        leaves = {}
        for name, shape in zip(names, shapes):
            data = rng.normal(size=shape)
            if name == "scores" and not scored:
                data = np.full(shape, 1.0 / r)
            with default_dtype(dtype):
                leaves[name] = Tensor(data, requires_grad=name in needs)
        z, scores, channel = (leaves[n] for n in names)
        forward = [t.data.copy() for t in leaves.values()]
        out = weighted_aggregate(graph, z, scores, channel)
        with default_dtype(dtype):
            weights = Tensor(rng.normal(size=(v, c)))
        loss = sum_all(hadamard(out, weights))
        used = [z, scores, channel]
        first, second = _swept_twice(loss, used)
        want_out, *want_grads = _weighted_aggregate_reference(
            graph, z.data, scores.data, channel.data, out.grad)
        assert out.data.tobytes() == want_out.tobytes()
        for t, want in zip((scores, z, channel), want_grads):
            if not t.requires_grad:
                assert t.grad is None
                continue
            assert t.grad.dtype == want.dtype == dtype
            assert t.grad.tobytes() == want.tobytes()
        for got, again in zip(first, second):
            assert got is None or got.tobytes() == again.tobytes()
        _share_nothing([t.grad for t in used if t.grad is not None],
                       [out.grad, out.data] + [t.data for t in used])
        for t, data in zip(leaves.values(), forward):
            assert t.data.tobytes() == data.tobytes()


class TestLossValues:
    def test_bce_saturated_logits_stay_finite(self):
        with default_dtype(np.float64):
            scores = Tensor(np.array([[60.0], [-60.0]]))
        out = bce_with_logits(scores, np.array([[0.0], [1.0]]))
        assert np.isfinite(float(out.data))

    def test_cross_entropy_uniform(self):
        with default_dtype(np.float64):
            logits = Tensor(np.zeros((2, 4)))
        out = cross_entropy_with_logits(logits, [1, 2])
        assert np.isclose(float(out.data), np.log(4.0))

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_with_logits(Tensor(np.zeros((1, 3))), [3])


# -- op-contract registry ----------------------------------------------------------

def _ones_row(like, width):
    """A constant channel-weight row of `width` ones in the dtype of `like`."""
    with default_dtype(like.dtype):
        return Tensor(np.ones((1, width)))


@functools.lru_cache(maxsize=None)
def _graph(v, r):
    """A RelGraph on v nodes and r relations with a mix of in-degrees; the
    self-loop (0, 0, 0) is always in it."""
    return RelGraph(v, r, [(s, d, q) for s in range(v) for d in range(v)
                           for q in range(r) if (s + 2 * d + q) % 3 == 0])


class OpCase(NamedTuple):
    """One op's contract. `shapes` maps symbolic dims, its parameters, to the
    input shapes; `charge` maps the same dims to the op's FLOPs by kind, as
    the tensor.py module docstring (and rel_aggregate's own) states them. `call(d, *inputs)` runs the
    op with the drawn dims as attributes of `d`; by default it is the op on
    the inputs. `recorded` is the op name a result records, when it is not
    `op`. `form` tells apart the cases of one op. `reads` lists the inputs,
    by position, whose data the op's backward reads."""
    op: str
    shapes: Callable
    charge: Callable
    call: Callable | None = None
    form: str = ""
    recorded: str | None = None
    reads: tuple = ()


def _elementwise(op, kind, reads=()):
    return OpCase(op, lambda m, n: [(m, n)], lambda m, n: {kind: m * n},
                  reads=reads)


def _binary(op, reads=()):
    """The same-shape and the row-broadcast form of a binary op."""
    return [OpCase(op, lambda m, n: [(m, n), (m, n)], lambda m, n: {op: m * n},
                   reads=reads),
            OpCase(op, lambda m, n: [(m, n), (n,)], lambda m, n: {op: m * n},
                   form="row", reads=reads)]


def _weighted_aggregate(scored, channel):
    """A weighted_aggregate case: with a scores input or the uniform
    ablation's constant 1/R scores, and with a channel-weight input or the
    constant ones row."""
    def shapes(v, r, c):
        return [(v, c)] + [(v, r)] * scored + [(1, r * c)] * channel

    def charge(v, r, c):
        return {"rel_aggregate": 2 * _graph(v, r).num_edges * c,
                "tile": 2 * r * v * c, "hadamard": 2 * r * v * c,
                "add": (r - 1) * v * c}

    def call(d, z, *rest):
        if scored:
            scores, *rest = rest
        else:
            with default_dtype(z.dtype):
                scores = Tensor(np.full((d.v, d.r), 1.0 / d.r))
        return weighted_aggregate(_graph(d.v, d.r), z, scores,
                                  rest[0] if channel else _ones_row(z, d.r * d.c))

    return OpCase("weighted_aggregate", shapes, charge, call,
                  form=("scored" if scored else "uniform")
                  + ("-channel" if channel else "-ones"),
                  reads=tuple(range(1 + scored + channel)))


def _layer_norm_charge(n, c):
    """The 11-op chain's charge for an [n, c] input."""
    return {"mean": 2 * n * c, "tile": 2 * n * c, "sub": n * c,
            "hadamard": 2 * n * c, "add": n, "sqrt": n, "div": n * c}


# every public op of tensor.py plus the graph ops, with the row-broadcast,
# uniform-score and constant-channel forms as extra cases
_OP_CASES = [
    *_binary("add"), *_binary("sub"), *_binary("hadamard", reads=(0, 1)),
    *_binary("div", reads=(0, 1)),
    OpCase("add_scalar", lambda m, n: [(m, n)], lambda m, n: {"add": m * n},
           lambda d, a: T.add_scalar(a, 0.5)),
    OpCase("mul_scalar", lambda m, n: [(m, n)], lambda m, n: {"hadamard": m * n},
           lambda d, a: T.mul_scalar(a, 1.5)),
    OpCase("matmul", lambda m, k, n: [(m, k), (k, n)],
           lambda m, k, n: {"matmul": 2 * m * n * k}, reads=(0, 1)),
    OpCase("linear", lambda m, k, n: [(m, k), (k, n), (n,)],
           lambda m, k, n: {"matmul": 2 * m * n * k}, reads=(0, 1)),
    OpCase("tile_rows", lambda m, n: [(n,)], lambda m, n: {"tile": m * n},
           lambda d, a: tile_rows(a, d.m)),
    OpCase("tile_cols", lambda m, n: [(m, 1)], lambda m, n: {"tile": m * n},
           lambda d, a: tile_cols(a, d.n)),
    *(_weighted_aggregate(scored, channel) for scored in (True, False)
      for channel in (False, True)),
    # a row of 2 normalizes to ±(1, -1) up to eps, so its input gradient is
    # O(eps) and finer than central differences resolve: rows hold c + 2
    OpCase("layer_norm", lambda n, c: [(n, c + 2), (c + 2,), (c + 2,)],
           lambda n, c: _layer_norm_charge(n, c + 2),
           lambda d, x, gamma, beta: T.layer_norm(x, gamma, beta, 1e-5),
           reads=(0, 1)),
    OpCase("sum_all", lambda m, n: [(m, n)], lambda m, n: {"sum": m * n - 1}),
    _elementwise("mean_rows", "mean"), _elementwise("mean_cols", "mean"),
    # sigmoid, exp and sqrt read their own output instead of their input
    *(_elementwise(op, op, reads=(0,)) for op in ("relu", "gelu", "log")),
    *(_elementwise(op, op) for op in ("sigmoid", "exp", "sqrt")),
    OpCase("reshape", lambda m, n: [(m, n)], lambda m, n: {},
           lambda d, a: reshape(a, (d.n, d.m))),
    OpCase("slice_rows", lambda m, n: [(m + 1, n)], lambda m, n: {},
           lambda d, a: slice_rows(a, 1, d.m + 1)),
    OpCase("slice_cols", lambda m, n: [(m, n + 1)], lambda m, n: {},
           lambda d, a: slice_cols(a, 1, d.n + 1)),
    OpCase("gather_rows", lambda m, n: [(m, n)], lambda m, n: {},
           lambda d, a: gather_rows(a, [d.m - 1, 0, d.m - 1])),
    OpCase("concat_rows", lambda m, k, n: [(m, n), (k, n)],
           lambda m, k, n: {}, lambda d, a, b: concat_rows([a, b])),
    OpCase("concat_cols", lambda m, k, n: [(m, n), (m, k)],
           lambda m, k, n: {}, lambda d, a, b: concat_cols([a, b])),
    # a (2j-1) x (2j-1) kernel: every odd size from 1 to 7
    OpCase("depthwise_conv2d",
           lambda h, w, c, j: [(h, w, c), (2 * j - 1, 2 * j - 1, c)],
           lambda h, w, c, j: {"depthwise_conv2d":
                               2 * h * w * c * (2 * j - 1) ** 2}, reads=(0, 1)),
    OpCase("cross_entropy_with_logits", lambda m, k: [(m, k)],
           lambda m, k: {"cross_entropy": 5 * m * k},
           lambda d, a: cross_entropy_with_logits(a, np.arange(d.m) % d.k),
           recorded="cross_entropy", reads=(0,)),
    OpCase("bce_with_logits", lambda m: [(m, 1)], lambda m: {"bce": 4 * m},
           lambda d, a: bce_with_logits(a, (np.arange(d.m) % 2).reshape(-1, 1)),
           recorded="bce", reads=(0,)),
    OpCase("rel_aggregate", lambda v, r, c: [(v, c)],
           lambda v, r, c: {"rel_aggregate": 2 * _graph(v, r).num_edges * c},
           lambda d, z: rel_aggregate(_graph(d.v, d.r), z)),
]
_POSITIVE_INPUTS = {"div", "log", "sqrt"}
_NOT_OPS = {"active_dtype", "count_flops", "counting_paused", "default_dtype",
            "finite_difference_check", "grad_enabled", "load_checkpoint",
            "no_grad", "save_checkpoint"}
# symbolic dims are drawn from 1..4 in every example; derandomized, so every
# run checks the same dims
CONTRACT = settings(derandomize=True, deadline=None, max_examples=10)


def _case_id(case):
    return "-".join(filter(None, (case.op, case.form)))


@functools.lru_cache(maxsize=None)
def _dims(case):
    """The strategy for a case's symbolic dims, the parameters of `shapes`."""
    names = inspect.signature(case.shapes).parameters
    return st.fixed_dictionaries({n: st.integers(1, 4) for n in names})


def _inputs(case, dims, dtype=np.float64):
    """Fresh grad-requiring inputs; the same values for the same dims."""
    rng = np.random.default_rng(0)
    low = 0.5 if case.op in _POSITIVE_INPUTS else -2.0
    with default_dtype(dtype):
        return [Tensor(rng.uniform(low, 2.0, size=s), requires_grad=True)
                for s in case.shapes(**dims)]


def _apply(case, dims, inputs):
    if case.call is None:
        return getattr(T, case.op)(*inputs)
    return case.call(SimpleNamespace(**dims), *inputs)


def _projected(out):
    """sum_all(hadamard(out, W)) for a fixed random W of out's shape and dtype,
    so every element of out gets its own upstream gradient."""
    with default_dtype(out.dtype):
        w = Tensor(np.random.default_rng(1).normal(size=out.shape))
    return sum_all(hadamard(out, w))


def _charged(per_op):
    return {kind: flops for kind, flops in per_op.items() if flops}


# each contract check is its own test over every registry case, so a failure
# names both the op and the check it broke
_EACH_CASE = pytest.mark.parametrize("case", _OP_CASES, ids=_case_id)


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_gradients_match_finite_differences(case, data):
    """1. Float64 gradients match central differences."""
    dims = data.draw(_dims(case))
    inputs = _inputs(case, dims)
    err = finite_difference_check(
        lambda: _projected(_apply(case, dims, inputs)), inputs)
    assert err < 1e-6, f"gradient error {err}"


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_charge_equals_the_formula(case, data):
    """2. The per-kind charge equals the documented formula."""
    dims = data.draw(_dims(case))
    with count_flops() as counter:
        _apply(case, dims, _inputs(case, dims))
    assert _charged(counter.per_op) == _charged(case.charge(**dims))


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_nan_input_names_the_recorded_op(case, data):
    """3. An all-NaN first input raises NumericError naming the recorded op,
    inside no_grad as well."""
    dims = data.draw(_dims(case))
    inputs = _inputs(case, dims)
    inputs[0].data[...] = np.nan
    name = re.escape(case.recorded or case.op)
    for scope in (nullcontext, no_grad):
        with scope(), np.errstate(all="ignore"), \
                pytest.raises(NumericError, match=f"by {name}$"):
            _apply(case, dims, inputs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_result_and_gradients_keep_the_input_dtype(case, dtype, data):
    """4. The result, every gradient a closure hands on and every leaf
    gradient keep the inputs' dtype."""
    dims = data.draw(_dims(case))
    inputs = _inputs(case, dims, dtype)
    out = _apply(case, dims, inputs)
    assert out.dtype == dtype
    handed = []

    def spying(accumulate):
        def spy(node, g):
            handed.append((node.op, g.dtype))
            accumulate(node, g)
        return spy

    # a closure hands each gradient to one of the two entry points
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_accumulate", "_accumulate_owned"):
            patch.setattr(T._Node, name, spying(getattr(T._Node, name)))
        sum_all(out).backward()
    assert len(handed) >= 1 + len(inputs)
    assert all(d == dtype for _, d in handed), handed
    assert all(t.grad.dtype == dtype for t in inputs)


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_retained_sweeps_repeat_and_leave_inputs(case, data):
    """5. Two retained sweeps give the same leaf gradients byte for byte and
    leave every input's data as it was."""
    dims = data.draw(_dims(case))
    inputs = _inputs(case, dims)
    forward = [t.data.copy() for t in inputs]
    first, second = _swept_twice(_projected(_apply(case, dims, inputs)), inputs)
    for got, again in zip(first, second):
        assert got.tobytes() == again.tobytes()
    for t, before in zip(inputs, forward):
        assert t.data.tobytes() == before.tobytes()


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_no_grad_matches_the_tape_and_records_nothing(case, data):
    """6. Inside no_grad the values and charges are the same, and the result
    records no tape node."""
    dims = data.draw(_dims(case))
    inputs = _inputs(case, dims)
    with count_flops() as taped:
        want = _apply(case, dims, inputs)
    with no_grad(), count_flops() as untaped:
        got = _apply(case, dims, inputs)
    assert want.requires_grad
    assert untaped.per_op == taped.per_op
    assert got.data.tobytes() == want.data.tobytes()
    assert not got.requires_grad
    assert got._node is None


def _closure_contents(fn):
    """Everything the cells of closure `fn` hold, looking into the closures
    and the lists and tuples it holds (not into tape nodes)."""
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        value = stack.pop()
        yield value
        if inspect.isfunction(value):
            stack.extend(cell.cell_contents for cell in value.__closure__ or ())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)


def _tape_nodes(out):
    seen, stack = {}, [out._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


@_EACH_CASE
@CONTRACT
@given(data=st.data())
def test_tape_keeps_only_the_inputs_backward_reads(case, data):
    """7. No closure on the tape holds a Tensor. A recorded input whose data
    the op's backward does not read is freed once the caller drops it; one
    that it reads, or that the result views, stays alive for the sweep."""
    dims = data.draw(_dims(case))
    leaves = _inputs(case, dims)
    # recorded inputs from a scaling by 1, whose backward reads nothing
    inputs = [T.mul_scalar(t, 1.0) for t in leaves]
    out = _apply(case, dims, inputs)
    for node in _tape_nodes(out):
        if node.backward is not None:
            held = [v for v in _closure_contents(node.backward)
                    if isinstance(v, Tensor)]
            assert not held, (node.op, held)
    want = [i in case.reads or np.shares_memory(t.data, out.data)
            for i, t in enumerate(inputs)]
    alive = [weakref.ref(t.data) for t in inputs]
    del inputs
    assert [ref() is not None for ref in alive] == want
    _projected(out).backward()
    assert all(t.grad is not None for t in leaves)


def _public_ops():
    return {name for name, f in vars(T).items()
            if inspect.isfunction(f) and f.__module__ == T.__name__
            and not name.startswith("_")} - _NOT_OPS


def test_every_public_op_has_a_case():
    assert _public_ops() == {case.op for case in _OP_CASES} - {
        "rel_aggregate", "weighted_aggregate"}


@_EACH_CASE
def test_each_case_makes_one_public_op_call(case, monkeypatch):
    """A tracer that wraps ops by name counts an op's output bytes once per
    call, so no public op may call another. Every public op and the graph
    ops are wrapped in each module that binds them, relmp's and this one."""
    dims = _fixed_dims(case)
    inputs = _inputs(case, dims)
    calls = []
    ops = {name: getattr(T, name) for name in _public_ops()}
    ops.update(rel_aggregate=rel_aggregate,
               weighted_aggregate=weighted_aggregate)
    modules = [m for name, m in list(sys.modules.items()) if m is not None
               and (name.startswith("relmp") or name == __name__)]
    for name, fn in ops.items():
        def logged(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, logged)
    _apply(case, dims, inputs)
    assert calls == [case.op]


def _fixed_dims(case):
    return dict.fromkeys(inspect.signature(case.shapes).parameters, 2)


# each operand position of the cases whose op takes two or more tensors
_OPERAND_POSITIONS = [
    pytest.param(case, wide, id=f"{_case_id(case)}-{wide}")
    for case in _OP_CASES for wide in range(len(case.shapes(**_fixed_dims(case))))
    if len(case.shapes(**_fixed_dims(case))) > 1]


class TestDtypeContract:
    def test_widening_op_is_a_contract_error(self, monkeypatch):
        monkeypatch.setattr(T, "_INV_SQRT2", np.float64(T._INV_SQRT2))
        x = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3))
        with pytest.raises(ContractError, match="gelu") as err:
            gelu(x)
        assert "float32" in str(err.value) and "float64" in str(err.value)

    @pytest.mark.parametrize("case, wide", _OPERAND_POSITIONS)
    def test_operands_of_two_dtypes_are_a_contract_error(self, case, wide):
        # float64 in operand position `wide`, float32 in the others
        dims = _fixed_dims(case)
        inputs = _inputs(case, dims, np.float32)
        with default_dtype(np.float64):
            inputs[wide] = Tensor(inputs[wide].data, requires_grad=True)
        name = re.escape(case.recorded or case.op)
        with pytest.raises(ContractError, match=f"^{name}: ") as err:
            _apply(case, dims, inputs)
        assert "float32" in str(err.value) and "float64" in str(err.value)

    def test_float32_gelu_tracks_float64(self):
        # compared at the same float32-representable points
        x = np.linspace(-8.0, 8.0, 4001).astype(np.float32).reshape(1, -1)
        values, grads = {}, {}
        for dtype in (np.float32, np.float64):
            with default_dtype(dtype):
                t = Tensor(x, requires_grad=True)
            out = gelu(t)
            sum_all(out).backward()
            values[dtype], grads[dtype] = out.data, t.grad
        bound = 2 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x))
        for got in (values, grads):
            assert got[np.float32].dtype == np.float32
            err = np.abs(got[np.float32].astype(np.float64) - got[np.float64])
            assert np.all(err <= bound), (err / bound).max()


def test_gelu_loads_scipy_special_on_first_call():
    # a fresh interpreter: the training, model and CLI modules load no
    # scipy.special, and the first GELU call then gives the erf formula
    code = "\n".join([
        "import sys",
        "import relmp.cli, relmp.models, relmp.training",
        "assert 'scipy.special' not in sys.modules, 'loaded on import'",
        "import numpy as np",
        "from relmp.tensor import Tensor, default_dtype, gelu",
        "for dtype in (np.float32, np.float64):",
        "    with default_dtype(dtype):",
        "        x = Tensor(np.linspace(-6.0, 6.0, 97).reshape(1, -1))",
        "    print(gelu(x).data.tobytes().hex())"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert len(lines) == 2, proc.stdout
    from scipy.special import erf
    for dtype, line in zip((np.float32, np.float64), lines):
        x = np.linspace(-6.0, 6.0, 97).astype(dtype).reshape(1, -1)
        want = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
        assert bytes.fromhex(line) == want.astype(dtype).tobytes(), dtype


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        with default_dtype(np.float64):
            weight = Tensor(rng.normal(size=(3, 4)))
        named = {"block.w": weight, "block.b": Tensor(rng.normal(size=4))}
        path = tmp_path / "params.bin"
        save_checkpoint(path, named)
        back = load_checkpoint(path)
        assert set(back) == set(named)
        for k in named:
            assert back[k].dtype == named[k].data.dtype
            assert np.array_equal(back[k], named[k].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from relmp.errors import DataError
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_every_truncation_is_a_data_error(self, tmp_path):
        path = tmp_path / "params.bin"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 3))), "b": Tensor([1.0])})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(path)

    # the last five once loaded: int() truncated 2.5 to 2 and read "16" and
    # 16.0 as the 16 bytes of a float32 [2, 2]
    @pytest.mark.parametrize("field,value", [
        ("dtype", "int64"), ("dtype", "object"), ("offset", -4),
        ("nbytes", 4), ("shape", [3, 2]), ("shape", "wide"),
        ("shape", [2.5, 2]), ("shape", [2.0, 2]), ("offset", 0.5),
        ("nbytes", "16"), ("nbytes", 16.0)])
    def test_inconsistent_header_entry_is_a_data_error(self, tmp_path, field,
                                                        value):
        path = tmp_path / "params.bin"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 2)))})
        edit_checkpoint_header(path, lambda entries: entries[0].update(
            {field: value}))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_header_naming_an_entry_twice_is_a_data_error(self, tmp_path):
        # the second entry once replaced the first without complaint
        path = tmp_path / "params.bin"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 2))),
                               "b": Tensor(np.zeros(2))})
        edit_checkpoint_header(path, lambda entries: entries[1].update(
            name="w"))
        with pytest.raises(DataError, match="w: entry named twice"):
            load_checkpoint(path)


def edit_checkpoint_header(path, edit):
    """Rewrite the checkpoint at `path` with `edit` applied to its header's
    list of entries; the payload stays as it was."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen])
    edit(header["tensors"])
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(raw)) + raw
                     + blob[8 + hlen:])
