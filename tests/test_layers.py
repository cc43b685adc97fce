"""Layer semantics against loop oracles, exact FLOP counts, gradients."""

from itertools import product

import numpy as np
import pytest

from relmp.costmodel import FFN_EXPANSION, grmp_flops, rgconv_flops
from relmp.errors import ContractError, NumericError, ShapeError
from relmp.graph import RelGraph, rel_aggregate
from relmp import layers
from relmp.layers import (ContextStackParams, FFNParams, GRMPParams, GRMPVariant,
                          LayerNormParams, PatchMergeParams, RGConvParams,
                          context_stack_features, ffn_forward, grmp_forward,
                          layer_norm, patch_merging, rgconv_forward)
from relmp.oracles import grmp_oracle, layer_norm_oracle, rgconv_oracle
from relmp import tensor as T
from relmp import tensor as tensor_module
from relmp.graph import weighted_aggregate
from relmp.tensor import (Tensor, add, count_flops, default_dtype,
                          finite_difference_check, hadamard, matmul, sum_all)


def random_graph(rng, num_nodes, num_relations, num_edges):
    triples = set()
    while len(triples) < num_edges:
        triples.add((int(rng.integers(num_nodes)), int(rng.integers(num_nodes)),
                     int(rng.integers(num_relations))))
    return RelGraph(num_nodes, num_relations, sorted(triples))


def circulant_graph(num_nodes, num_relations, degree):
    """Every node has exactly `degree` in-neighbors under every relation."""
    assert degree < num_nodes
    edges = []
    for r in range(num_relations):
        for v in range(num_nodes):
            for j in range(1, degree + 1):
                edges.append(((v + j) % num_nodes, v, r))
    return RelGraph(num_nodes, num_relations, edges)


def randomize(params, rng, std=0.6):
    for t in params.tensors().values():
        t.data = rng.normal(0.0, std, size=t.shape).astype(t.data.dtype)


class TestRGConv:
    def test_identity_single_neighbor(self):
        # one neighbor u of v under one relation, identity maps, zero biases:
        # node v collects z_v + z_u
        g = RelGraph(2, 1, [(0, 1, 0)])
        with default_dtype(np.float64):
            p = RGConvParams.init(np.random.default_rng(0), 1, 2)
        p.w_stack.data = np.eye(2)
        p.w_self.data = np.eye(2)
        with default_dtype(np.float64):
            z = Tensor([[1.0, 2.0], [10.0, 20.0]])
        out = rgconv_forward(g, z, p)
        assert np.allclose(out.data[1], [11.0, 22.0])
        assert np.allclose(out.data[0], [1.0, 2.0])  # no in-edges: self only

    def test_empty_graph_degenerates_to_self(self):
        g = RelGraph(3, 2, [])
        rng = np.random.default_rng(1)
        with default_dtype(np.float64):
            p = RGConvParams.init(rng, 2, 4)
        randomize(p, rng)
        with default_dtype(np.float64):
            z = Tensor(rng.normal(size=(3, 4)))
        out = rgconv_forward(g, z, p)
        want = (z.data @ p.w_self.data + p.b_self.data
                + p.b_stack.data.sum(axis=0))
        assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_against_loop_oracle_float64(self):
        rng = np.random.default_rng(2)
        for trial in range(4):
            g = random_graph(rng, 7, 3, 25)
            with default_dtype(np.float64):
                p = RGConvParams.init(rng, 3, 5)
            randomize(p, rng)
            z = rng.normal(size=(7, 5))
            with default_dtype(np.float64):
                out = rgconv_forward(g, Tensor(z), p)
            want = rgconv_oracle(7, 3, g.edge_list(), z, p.w_stack.data,
                                 p.b_stack.data, p.w_self.data, p.b_self.data)
            assert np.allclose(out.data, want, rtol=1e-9, atol=1e-9)

    def test_against_loop_oracle_float32(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8, 2, 20)
        p = RGConvParams.init(rng, 2, 4)
        randomize(p, rng)
        z = rng.normal(size=(8, 4)).astype(np.float32)
        out = rgconv_forward(g, Tensor(z), p)
        want = rgconv_oracle(8, 2, g.edge_list(), z, p.w_stack.data,
                             p.b_stack.data, p.w_self.data, p.b_self.data)
        scale = np.abs(want).max()
        assert np.abs(out.data - want).max() / scale < 1e-6

    def test_counter_matches_closed_form(self):
        for r, d, v, c in [(1, 1, 6, 4), (3, 2, 8, 4), (2, 3, 10, 4)]:
            g = circulant_graph(v, r, d)
            p = RGConvParams.init(np.random.default_rng(4), r, c)
            z = Tensor(np.random.default_rng(5).normal(size=(v, c)).astype(np.float32))
            with count_flops() as counter:
                rgconv_forward(g, z, p)
            assert counter.total == rgconv_flops(r, d, v, c)

    def test_relation_count_mismatch(self):
        g = RelGraph(3, 2, [(0, 1, 0)])
        p = RGConvParams.init(np.random.default_rng(6), 3, 4)
        with pytest.raises(ShapeError):
            rgconv_forward(g, Tensor(np.ones((3, 4))), p)


class TestGRMP:
    def test_against_loop_oracle_all_variants(self):
        # all 16 structures: every gating, alpha and transform combination
        rng = np.random.default_rng(7)
        for gating, alpha, use_w_in, use_w_out in product(
                ("multiplicative", "additive"), ("learned", "uniform"),
                (True, False), (True, False)):
            variant = GRMPVariant(gating=gating, alpha=alpha,
                                  use_w_in=use_w_in, use_w_out=use_w_out)
            g = random_graph(rng, 6, 3, 20)
            with default_dtype(np.float64):
                p = GRMPParams.init(rng, 3, 4, variant=variant)
            randomize(p, rng)
            z = rng.normal(size=(6, 4))
            with default_dtype(np.float64):
                out = grmp_forward(g, Tensor(z), p)
            want = grmp_oracle(
                6, 3, g.edge_list(), z, p.w_self.data, p.w_channel.data,
                w_in=None if p.w_in is None else p.w_in.data,
                b_in=None if p.b_in is None else p.b_in.data,
                w_out=None if p.w_out is None else p.w_out.data,
                b_out=None if p.b_out is None else p.b_out.data,
                w_alpha=None if p.w_alpha is None else p.w_alpha.data,
                b_alpha=None if p.b_alpha is None else p.b_alpha.data,
                gating=gating, alpha=alpha)
            assert np.allclose(out.data, want, rtol=1e-9, atol=1e-9), str(variant)

    def test_against_loop_oracle_float32(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 8, 2, 22)
        p = GRMPParams.init(rng, 2, 4)
        randomize(p, rng)
        z = rng.normal(size=(8, 4)).astype(np.float32)
        out = grmp_forward(g, Tensor(z), p)
        want = grmp_oracle(8, 2, g.edge_list(), z, p.w_self.data, p.w_channel.data,
                           w_in=p.w_in.data, b_in=p.b_in.data, w_out=p.w_out.data,
                           b_out=p.b_out.data, w_alpha=p.w_alpha.data,
                           b_alpha=p.b_alpha.data)
        scale = np.abs(want).max()
        assert np.abs(out.data - want).max() / scale < 1e-6

    def test_isolated_node_gets_gated_output_bias(self):
        # no incoming edges anywhere: aggregated message is exactly b_out,
        # so the update is (z W_self) * b_out elementwise
        rng = np.random.default_rng(9)
        g = RelGraph(2, 2, [])
        with default_dtype(np.float64):
            p = GRMPParams.init(rng, 2, 3)
        randomize(p, rng)
        z = rng.normal(size=(2, 3))
        with default_dtype(np.float64):
            out = grmp_forward(g, Tensor(z), p)
        want = (z @ p.w_self.data) * p.b_out.data
        assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_zero_relations_rejected(self):
        with pytest.raises(ContractError):
            GRMPParams.init(np.random.default_rng(10), 0, 4)

    def test_counter_matches_closed_form(self):
        for r, d, v, c in [(1, 1, 6, 4), (2, 3, 10, 4), (4, 2, 8, 16)]:
            g = circulant_graph(v, r, d)
            p = GRMPParams.init(np.random.default_rng(11), r, c)
            z = Tensor(np.random.default_rng(12).normal(size=(v, c)).astype(np.float32))
            with count_flops() as counter:
                grmp_forward(g, z, p)
            assert counter.total == grmp_flops(r, d, v, c)

    def test_reduces_to_rgconv(self):
        # additive gating, uniform scores, identity in/out, unit channel
        # weights: the gated layer IS a relational convolution with all
        # relation matrices equal to I/R
        rng = np.random.default_rng(13)
        for trial in range(3):
            g = random_graph(rng, 7, 3, 24)
            c = 5
            variant = GRMPVariant(gating="additive", alpha="uniform")
            with default_dtype(np.float64):
                p = GRMPParams.init(rng, 3, c, variant=variant)
            p.w_self.data = rng.normal(size=(c, c))
            p.w_in.data = np.eye(c)
            p.b_in.data = np.zeros(c)
            p.w_out.data = np.eye(c)
            p.b_out.data = np.zeros(c)
            p.w_channel.data = np.ones((1, 3 * c))
            with default_dtype(np.float64):
                q = RGConvParams.init(rng, 3, c)
            q.w_stack.data = np.vstack([np.eye(c) / 3 for _ in range(3)])
            q.b_stack.data = np.zeros((3, c))
            q.w_self.data = p.w_self.data.copy()
            q.b_self.data = np.zeros(c)
            z = rng.normal(size=(7, c))
            with default_dtype(np.float64):
                a = grmp_forward(g, Tensor(z), p)
                b = rgconv_forward(g, Tensor(z), q)
            scale = np.abs(b.data).max()
            assert np.abs(a.data - b.data).max() / scale < 1e-6

    def test_ablation_parameter_deltas(self):
        rng = np.random.default_rng(14)
        for r, c in [(3, 8), (7, 16), (9, 32)]:
            full = GRMPParams.init(rng, r, c).param_count()
            no_in = GRMPParams.init(rng, r, c,
                                    variant=GRMPVariant(use_w_in=False)).param_count()
            no_out = GRMPParams.init(rng, r, c,
                                     variant=GRMPVariant(use_w_out=False)).param_count()
            uniform = GRMPParams.init(rng, r, c,
                                      variant=GRMPVariant(alpha="uniform")).param_count()
            assert full - no_in == c * c + c
            assert full - no_out == c * c + c
            assert full - uniform == c * r + r


class TestLayerGradients:
    def test_both_layers_full_finite_difference(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            g = random_graph(rng, 5, 2, 12)
            with default_dtype(np.float64):
                z = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
                p = GRMPParams.init(rng, 2, 3)
            randomize(p, rng)
            tensors = [z] + list(p.tensors().values())

            def loss_fn():
                out = grmp_forward(g, z, p)
                return sum_all(hadamard(out, out))

            worst = max(worst, finite_difference_check(loss_fn, tensors))

            with default_dtype(np.float64):
                q = RGConvParams.init(rng, 2, 3)
            randomize(q, rng)
            tensors_q = [z] + list(q.tensors().values())

            def loss_fn_q():
                out = rgconv_forward(g, z, q)
                return sum_all(hadamard(out, out))

            worst = max(worst, finite_difference_check(loss_fn_q, tensors_q))
        assert worst < 1e-5, f"worst relative gradient error {worst}"


def reference_weighted_sum(slots, scores, channel):
    """The weighting of `rel_aggregate`'s [V*R, C] slots as one recorded op in
    raw NumPy, node-major: each slot times its channel weights, then its
    node's score, summed over relations in order. Its tape keeps the slots,
    as the gated layer's did before one op took in the aggregation."""
    (v, r), c = scores.shape, slots.shape[1]
    slot_data = slots.data.reshape(v, r, c)
    score_data, channel_data = scores.data, channel.data.reshape(r, c)
    terms = slot_data * channel_data * score_data[:, :, None]
    out = terms[:, 0].copy()
    for k in range(1, r):
        out += terms[:, k]
    tensor_module._charge("tile", 2 * r * v * c)
    tensor_module._charge("hadamard", 2 * r * v * c)
    if r > 1:
        tensor_module._charge("add", (r - 1) * v * c)
    nslots, nscores, nchannel = slots._node, scores._node, channel._node
    channel_shape = channel.shape

    def backward(g):
        if nscores is not None:
            nscores._accumulate((slot_data * channel_data
                                 * g[:, None, :]).sum(axis=2))
        gw = g[:, None, :] * score_data[:, :, None]
        if nslots is not None:
            nslots._accumulate((gw * channel_data).reshape(v * r, c))
        if nchannel is not None:
            nchannel._accumulate((gw * slot_data).reshape(v, r * c).sum(axis=0)
                                 .reshape(channel_shape))

    return tensor_module._result(out, "reference_weighted_sum",
                                 (slots, scores, channel), backward)


def unfused_aggregate(graph, z, scores, channel):
    """`weighted_aggregate` as `rel_aggregate` plus the raw-NumPy weighting."""
    return reference_weighted_sum(rel_aggregate(graph, z), scores, channel)


def recorded_ops(out):
    """The sorted op names of the distinct recorded (non-leaf) nodes on the
    tape of `out`."""
    seen, stack, ops = set(), [out._node], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op != "leaf":
            ops.append(node.op)
        stack.extend(node.parents)
    return sorted(ops)


class TestRelationWeighting:
    def run_layer(self, g, z, p, upstream):
        """Forward output, per-kind FLOPs and every gradient of one call."""
        for t in [z, *p.tensors().values()]:
            t.zero_grad()
        with count_flops() as counter:
            out = grmp_forward(g, z, p)
        sum_all(hadamard(out, Tensor(upstream))).backward()
        grads = {name: t.grad for name, t in p.tensors().items()}
        return out.data, counter.per_op, {"z": z.grad, **grads}

    @pytest.mark.parametrize("unfused", [unfused_aggregate], ids=["raw-numpy"])
    def test_matches_unfused_chain_bitwise_float32(self, unfused, monkeypatch):
        rng = np.random.default_rng(40)
        for r, c in [(1, 5), (3, 40), (12, 16), (12, 136), (4, 1)]:
            for alpha in ("learned", "uniform"):
                g = random_graph(rng, 9, r, 6 * r)
                p = GRMPParams.init(rng, r, c, variant=GRMPVariant(alpha=alpha))
                randomize(p, rng)
                z = Tensor(rng.normal(size=(9, c)), requires_grad=True)
                upstream = rng.normal(size=(9, c)).astype(np.float32)
                fused = self.run_layer(g, z, p, upstream)
                with monkeypatch.context() as m:
                    m.setattr(layers, "weighted_aggregate", unfused)
                    chained = self.run_layer(g, z, p, upstream)
                case = f"R={r} C={c} alpha={alpha}"
                assert fused[0].dtype == np.float32
                assert np.array_equal(fused[0], chained[0]), case
                assert fused[1] == chained[1], case
                assert fused[2].keys() == chained[2].keys()
                for name, grad in fused[2].items():
                    assert grad.dtype == np.float32
                    assert np.array_equal(grad, chained[2][name]), f"{case} {name}"

    def test_shared_input_matches_chain_bitwise_float32(self):
        # the features also feed a second op, so their gradient is a sum whose
        # rounding depends on the order the terms arrive in
        rng = np.random.default_rng(43)
        v, r, c = 11, 5, 24
        g = random_graph(rng, v, r, 4 * v)
        draws = [rng.normal(size=s).astype(np.float32)
                 for s in [(v, c), (c, c), (v, r), (1, r * c), (v, c)]]
        runs = []
        for fn in (weighted_aggregate, unfused_aggregate):
            a, w, scores, channel = (Tensor(d, requires_grad=True)
                                     for d in draws[:4])
            with count_flops() as counter:
                z = matmul(a, w)
                out = add(fn(g, z, scores, channel), z)
            sum_all(hadamard(out, Tensor(draws[4]))).backward()
            runs.append((out.data, counter.per_op,
                         [a.grad, w.grad, channel.grad, scores.grad]))
        fused, chained = runs
        assert np.array_equal(fused[0], chained[0])
        assert fused[1] == chained[1]
        for got, want in zip(fused[2], chained[2]):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    def test_tape_keeps_no_slots(self):
        # the closure holds the operands' nodes and views of their data,
        # nothing of its own: no [V*R, C] slots and no weighted terms
        rng = np.random.default_rng(44)
        g = random_graph(rng, 6, 3, 14)
        z, scores, channel = (Tensor(rng.normal(size=s), requires_grad=True)
                              for s in [(6, 4), (6, 3), (1, 12)])
        out = weighted_aggregate(g, z, scores, channel)
        held = [cell.cell_contents for cell in out._node.backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert all(any(np.shares_memory(a, t.data) for t in (z, scores, channel))
                   for a in arrays), arrays
        assert out._node.parents == (z._node, scores._node, channel._node)

    def test_rejects_mismatched_shapes(self):
        g = RelGraph(4, 3, [(0, 1, 0), (2, 1, 2)])
        z = Tensor(np.ones((4, 2)))
        scores = Tensor(np.ones((4, 3)))
        ones = Tensor(np.ones((1, 6)))
        for bad_z, bad_scores in [
                (Tensor(np.ones((4, 2, 1))), scores),
                (Tensor(np.ones(8)), scores),
                (Tensor(np.ones((3, 2))), scores),
                (z, Tensor(np.ones((4, 2)))),
                (z, Tensor(np.ones(12)))]:
            with pytest.raises(ShapeError):
                weighted_aggregate(g, bad_z, bad_scores, ones)
        for channel in (Tensor(np.ones(6)), Tensor(np.ones((1, 4))),
                        Tensor(np.ones((4, 6)))):
            with pytest.raises(ShapeError):
                weighted_aggregate(g, z, scores, channel)

    def test_recorded_op_count_does_not_grow_with_relations(self):
        # one op per step: steps 2-3 are one op, with no reshape of slots and
        # no scaling of the sum
        rng = np.random.default_rng(42)
        for alpha, scoring in (("learned", ["linear"]), ("uniform", [])):
            want = sorted(["linear", *scoring, "weighted_aggregate", "linear",
                           "matmul", "hadamard"])
            for r in (2, 12):
                g = random_graph(rng, 8, r, 4 * r)
                p = GRMPParams.init(rng, r, 4, variant=GRMPVariant(alpha=alpha))
                ops = recorded_ops(grmp_forward(g, Tensor(np.ones((8, 4))), p))
                assert ops == want, (alpha, r)


def chained_layer_norm(x, gamma, beta, eps):
    """Layer norm as one recorded raw-NumPy op that charges, checks and
    rounds each step as the 11-op chain `tensor.layer_norm` replaces (its
    docstring lists them). The tiles are materialized, each step charges and
    checks what its op did (the add of beta uncharged), and the backward
    applies each op's gradient formula in the order a tape sweep of the chain
    visits them."""
    n, c = x.shape
    gamma_row, beta_row = gamma.data.reshape(1, c), beta.data.reshape(1, c)

    def step(kind, value, flops=None):
        # a mean charges its input's size, every other step its output's
        tensor_module._charge(kind, value.size if flops is None else flops)
        tensor_module._check_finite(value, kind)
        return value

    mu = step("mean", x.data.mean(axis=1, keepdims=True), n * c)
    centered = step("sub", x.data - step("tile", np.repeat(mu, c, axis=1)))
    sq = step("hadamard", centered * centered)
    var = step("mean", sq.mean(axis=1, keepdims=True), n * c)
    std = step("sqrt", np.sqrt(step("add", var + eps)))
    tiled_std = step("tile", np.repeat(std, c, axis=1))
    normed = step("div", centered / tiled_std)
    out = step("hadamard", normed * gamma_row) + beta_row
    nx, ngamma, nbeta = x._node, gamma._node, beta._node

    def backward(g):
        if nbeta is not None:
            nbeta._accumulate(g.sum(axis=0))
        g_normed = g * gamma_row
        if ngamma is not None:
            ngamma._accumulate((g * normed).sum(axis=0))
        g_centered = g_normed / tiled_std
        g_std = (-g_normed * centered / (tiled_std * tiled_std)).sum(
            axis=1, keepdims=True)
        g_sq = np.repeat(g_std * 0.5 / std / c, c, axis=1)
        # the square's operands, in order
        g_centered = g_centered + g_sq * centered
        g_centered = g_centered + g_sq * centered
        if nx is not None:
            nx._accumulate(g_centered)
            g_mu = (-g_centered).sum(axis=1, keepdims=True)
            nx._accumulate(np.repeat(g_mu / c, c, axis=1))

    return tensor_module._result(out, "chained_layer_norm", (x, gamma, beta),
                                 backward)


class TestFusedLayerNorm:
    def run_norm(self, draws, source):
        """Output, per-kind FLOPs and gradients of one `layer_norm` call whose
        input is a leaf, a matmul result, or a matmul result that a residual
        add also consumes."""
        a, w = Tensor(draws[0], requires_grad=True), Tensor(draws[1], requires_grad=True)
        p = LayerNormParams.init(draws[0].shape[1])
        p.gamma.data, p.beta.data = draws[2], draws[3]
        with count_flops() as counter:
            x = a if source == "leaf" else matmul(a, w)
            out = layer_norm(x, p)
            if source == "residual":
                out = add(x, out)
        sum_all(hadamard(out, Tensor(draws[4]))).backward()
        grads = {"a": a.grad, "gamma": p.gamma.grad, "beta": p.beta.grad}
        if source != "leaf":
            grads["w"] = w.grad
        return out.data, counter.per_op, grads

    @pytest.mark.parametrize("source", ["leaf", "matmul", "residual"])
    def test_matches_unfused_chain_bitwise_float32(self, monkeypatch, source):
        rng = np.random.default_rng(50)
        for n, c in [(1, 1), (1, 5), (7, 4), (33, 96), (64, 128)]:
            draws = [(rng.normal(size=s) * 3 + 1).astype(np.float32)
                     for s in [(n, c), (c, c), (c,), (c,), (n, c)]]
            fused = self.run_norm(draws, source)
            with monkeypatch.context() as m:
                m.setattr(layers, "_layer_norm", chained_layer_norm)
                chained = self.run_norm(draws, source)
            case = f"n={n} c={c} {source}"
            assert fused[0].dtype == np.float32
            assert np.array_equal(fused[0], chained[0]), case
            assert fused[1] == chained[1], case
            assert fused[2].keys() == chained[2].keys()
            for name, grad in fused[2].items():
                assert grad.dtype == np.float32
                assert np.array_equal(grad, chained[2][name]), f"{case} {name}"

    def test_overflowing_variance_raises_naming_the_op(self):
        # the square of 1e20 overflows float32; normalizing by the infinite
        # std would give finite zeros, so the op checks the std as well
        x = np.array([[1e20, -1e20, 3.0, 4.0]], dtype=np.float32)
        p = LayerNormParams.init(4)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="hadamard"):
                chained_layer_norm(Tensor(x), p.gamma, p.beta, 1e-5)
            with pytest.raises(NumericError, match="layer_norm"):
                layer_norm(Tensor(x), p)

    def test_tape_keeps_only_the_input_mean_and_std(self):
        n, c = 6, 8
        x = Tensor(np.random.default_rng(52).normal(size=(n, c)),
                   requires_grad=True)
        params = LayerNormParams.init(c)
        out = layer_norm(x, params)
        held = [cell.cell_contents for cell in out._node.backward.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert sorted(v.shape for v in arrays) == [(1, c), (n, 1), (n, 1), (n, c)]
        assert any(v is x.data for v in arrays)
        assert any(np.shares_memory(v, params.gamma.data) for v in arrays)

    def test_rejects_bad_shapes(self):
        p = LayerNormParams.init(4)
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 2, 4))), p)
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 5))), p)
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))),
                         p.beta, 1e-5)


class TestBlocksAndPooling:
    def test_layer_norm_against_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 8)) * 3 + 1
        with default_dtype(np.float64):
            p = LayerNormParams.init(8)
        p.gamma.data = rng.normal(size=8)
        p.beta.data = rng.normal(size=8)
        with default_dtype(np.float64):
            out = layer_norm(Tensor(x), p)
        want = layer_norm_oracle(x, p.gamma.data, p.beta.data)
        assert np.allclose(out.data, want, rtol=1e-9, atol=1e-9)

    def test_ffn_shape_and_gradient(self):
        rng = np.random.default_rng(16)
        with default_dtype(np.float64):
            p = FFNParams.init(rng, 4)
        assert p.w1.shape == (4, 4 * FFN_EXPANSION)
        randomize(p, rng, std=0.3)
        with default_dtype(np.float64):
            x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = ffn_forward(x, p)
        assert out.shape == (5, 4)

        def loss_fn():
            return sum_all(hadamard(ffn_forward(x, p), ffn_forward(x, p)))

        assert finite_difference_check(loss_fn, [x] + list(p.tensors().values())) < 1e-5

    def test_context_stack_kernels_and_shape(self):
        # three 3x3 kernels: test_context_stack_locality checks that their
        # receptive field is 7
        rng = np.random.default_rng(17)
        with default_dtype(np.float64):
            p = ContextStackParams.init(rng, 3)
            z = Tensor(rng.normal(size=(20, 3)))
        assert [k.shape for k in p.kernels] == [(3, 3, 3)] * 3
        out = context_stack_features(z, 4, 5, p)
        assert out.shape == (20, 3)

    def test_context_stack_locality(self):
        # with receptive field 7, a pixel farther than 3 steps away in any
        # direction cannot influence a cell
        rng = np.random.default_rng(18)
        base = np.zeros((9, 9, 1))
        poked = base.copy()
        poked[0, 0, 0] = 5.0
        with default_dtype(np.float64):
            p = ContextStackParams.init(rng, 1)
            for k in p.kernels:
                k.data = k.data * (0.5 / layers.INIT_STD)
            z0 = context_stack_features(Tensor(base.reshape(81, 1)), 9, 9, p).data
            z1 = context_stack_features(Tensor(poked.reshape(81, 1)), 9, 9, p).data
        diff = np.abs(z1 - z0).reshape(9, 9)
        assert diff[0, 0] != 0.0
        assert np.all(diff[4:, :] == 0.0) and np.all(diff[:, 4:] == 0.0)

    def test_patch_merging_against_gather_oracle(self):
        rng = np.random.default_rng(20)
        h, w, c = 4, 6, 3
        with default_dtype(np.float64):
            p = PatchMergeParams.init(rng, c)
        randomize(p, rng, std=0.4)
        p.norm.gamma.data = np.abs(p.norm.gamma.data) + 0.5
        z = rng.normal(size=(h * w, c))
        with default_dtype(np.float64):
            out = patch_merging(Tensor(z), h, w, p)
        assert out.shape == ((h // 2) * (w // 2), 2 * c)
        # oracle: explicit window gather, same norm, same linear
        rows = []
        for bi in range(h // 2):
            for bj in range(w // 2):
                tl = z[(2 * bi) * w + 2 * bj]
                tr = z[(2 * bi) * w + 2 * bj + 1]
                bl = z[(2 * bi + 1) * w + 2 * bj]
                br = z[(2 * bi + 1) * w + 2 * bj + 1]
                rows.append(np.concatenate([tl, tr, bl, br]))
        gathered = np.stack(rows)
        want = layer_norm_oracle(gathered, p.norm.gamma.data,
                                 p.norm.beta.data) @ p.w_reduce.data
        assert np.allclose(out.data, want, rtol=1e-9, atol=1e-9)

    def test_patch_merging_identical_window_gives_normalized_prefix(self):
        # identical rows + identity-like reduction (first 2C columns of the
        # 4C identity), fresh normalization: the window [row]*4 has the mean
        # and variance of row, so the output is the normalized row, twice
        rng = np.random.default_rng(19)
        c = 3
        with default_dtype(np.float64):
            p = PatchMergeParams.init(rng, c)
        p.w_reduce.data = np.eye(4 * c)[:, :2 * c]
        row = rng.normal(size=c)
        with default_dtype(np.float64):
            z = Tensor(np.tile(row, (4, 1)))
        out = patch_merging(z, 2, 2, p)
        assert out.shape == (1, 2 * c)
        normed = layer_norm_oracle(row[None], np.ones(c), np.zeros(c))[0]
        assert np.allclose(out.data[0], np.concatenate([normed, normed]),
                           rtol=1e-9, atol=1e-9)

    def test_patch_merging_odd_grid_rejected(self):
        p = PatchMergeParams.init(np.random.default_rng(21), 2)
        with pytest.raises(ShapeError):
            patch_merging(Tensor(np.ones((6, 2))), 3, 2, p)

    def test_virtual_row_receives_no_messages(self):
        # a node with no in-edges only contributes; aggregation slots for it
        # stay zero even when it has outgoing edges
        g = RelGraph(3, 1, [(2, 0, 0), (2, 1, 0)])
        with default_dtype(np.float64):
            z = Tensor(np.array([[1.0], [2.0], [7.0]]))
        out = rel_aggregate(g, z)
        assert out.data[2 * 1 + 0] == 0.0
        assert out.data[0] == 7.0 and out.data[1] == 7.0


# -- weight draws ------------------------------------------------------------------------


def reference_trunc_normal(rng, shape, rounds=None):
    """Mask-and-redraw loop that rescans the whole array each round: the
    draw `layers.trunc_normal` must reproduce value for value. `rounds`, a
    list, collects the size of each redraw."""
    vals = rng.normal(0.0, layers.INIT_STD, size=shape)
    bad = np.abs(vals) > 2 * layers.INIT_STD
    while bad.any():
        if rounds is not None:
            rounds.append(int(bad.sum()))
        vals[bad] = rng.normal(0.0, layers.INIT_STD, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * layers.INIT_STD
    return vals


class TestTruncNormal:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", [(0, 5), (1,), (7, 3), (96, 96)])
    def test_matches_the_rescanning_loop(self, shape, seed):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = reference_trunc_normal(want_rng, shape)
        got = layers.trunc_normal(got_rng, shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.all(np.abs(got) <= 2 * layers.INIT_STD)

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_matches_the_rescanning_loop_over_many_rounds(self, seed):
        # at these seeds a [2048, 2048] draw takes five redraw rounds, the
        # last of them one or two values wide
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        rounds = []
        want = reference_trunc_normal(want_rng, (2048, 2048), rounds)
        assert len(rounds) >= 5, rounds
        got = layers.trunc_normal(got_rng, (2048, 2048))
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
