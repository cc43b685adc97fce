"""Closed-form layer costs: worked values, step sums, linearity, crossover."""

import pytest

from relmp import costmodel
from relmp.costmodel import (ffn_flops, grmp_flops, grmp_step_flops, rgconv_flops,
                             rgconv_step_flops, sweep_csv, sweep_relation_counts)
from relmp.errors import ContractError
from relmp.models import PATCH_SIZE, ImageModelConfig


class TestWorkedValues:
    # frozen by hand from the closed forms before implementation
    def test_rgconv_unit_case(self):
        assert rgconv_flops(1, 0, 1, 1) == 5
        assert rgconv_step_flops(1, 0, 1, 1) == [0, 2, 3]

    def test_grmp_unit_case(self):
        assert grmp_flops(1, 0, 1, 1) == 13
        assert grmp_step_flops(1, 0, 1, 1) == [2, 2, 4, 2, 3]

    def test_small_graph_values(self):
        assert rgconv_flops(2, 3, 10, 4) == 1480
        assert grmp_flops(2, 3, 10, 4) == 2000

    def test_crossover_at_wide_channels(self):
        assert grmp_flops(7, 3, 10, 64) == 304000
        assert rgconv_flops(7, 3, 10, 64) == 682880
        assert grmp_flops(7, 3, 10, 64) < rgconv_flops(7, 3, 10, 64)


class TestStructure:
    def test_steps_sum_to_total(self):
        cases = [(1, 0, 1, 1), (2, 3, 10, 4), (7, 3, 10, 64), (9, 2, 64, 16),
                 (4, 1.5, 8, 4)]
        for r, d, v, c in cases:
            assert sum(rgconv_step_flops(r, d, v, c)) == rgconv_flops(r, d, v, c)
            assert sum(grmp_step_flops(r, d, v, c)) == grmp_flops(r, d, v, c)

    def test_grmp_linear_in_relations(self):
        d, v, c = 2, 32, 16
        marginal = (2 * d + 7) * v * c
        for r in range(1, 12):
            assert grmp_flops(r + 1, d, v, c) - grmp_flops(r, d, v, c) == marginal

    def test_rgconv_quadratic_term_dominates_marginal(self):
        d, v, c = 2, 32, 16
        marginal = 2 * d * v * c + 2 * v * c * c
        for r in range(0, 6):
            assert rgconv_flops(r + 1, d, v, c) - rgconv_flops(r, d, v, c) == marginal

    def test_fractional_degree_exact_when_integral_product(self):
        # dbar = 1.5 with V = 8 gives integral dbar*V
        assert rgconv_flops(1, 1.5, 8, 4) == 1 * (2 * 12 * 4) + 2 * 8 * 16 + 2 * 8 * 16 + 32
        assert grmp_flops(2, 1.5, 8, 4) == 2 * 10 * 8 * 4 + 6 * 8 * 16

    def test_grmp_requires_a_relation(self):
        with pytest.raises(ContractError):
            grmp_flops(0, 1, 4, 4)
        with pytest.raises(ContractError):
            grmp_step_flops(0, 1, 4, 4)

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractError):
            rgconv_flops(1, -1, 4, 4)


class TestSweep:
    def test_rows_and_crossover(self):
        rows = sweep_relation_counts(24)
        assert len(rows) == 24
        assert [k for k, _, _ in rows] == list(range(1, 25))
        # per layer the gap is R*(7C - 2C^2) + (4C^2 - C) + 2*dbar*... : with
        # dbar = 1 the gated layer is cheaper exactly from K = 3 on at these
        # widths, and dearer at K = 1, 2 (the quadratic terms tie at K = 2)
        for k, rg, gm in rows:
            if k >= 3:
                assert gm < rg
            else:
                assert gm > rg

    def test_marginals_are_constant_and_ordered(self):
        rows = sweep_relation_counts(10)
        grmp_marginals = {rows[i + 1][2] - rows[i][2] for i in range(len(rows) - 1)}
        rg_marginals = {rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)}
        assert len(grmp_marginals) == 1
        assert len(rg_marginals) == 1
        expected = sum(depth * (2 * 1 + 7) * nodes * ch
                       for nodes, ch, depth in costmodel.IMAGE_MODEL_STAGES)
        assert grmp_marginals == {expected}
        assert grmp_marginals.pop() < rg_marginals.pop()

    def test_per_stage_marginal_strictly_smaller(self):
        for nodes, ch, depth in costmodel.IMAGE_MODEL_STAGES:
            grmp_m = (2 * 1 + 7) * nodes * ch
            rg_m = 2 * 1 * nodes * ch + 2 * nodes * ch * ch
            assert grmp_m < rg_m

    def test_csv_shape(self):
        text = sweep_csv(sweep_relation_counts(3))
        lines = text.strip().split("\n")
        assert lines[0] == "K,rgconv_flops,grmp_flops"
        assert len(lines) == 4
        k, rg, gm = lines[1].split(",")
        assert (k, int(rg) > 0, int(gm) > 0) == ("1", True, True)

    def test_ffn_added_identically(self):
        rows_with = sweep_relation_counts(2)
        # removing the FFN from both columns leaves the gap unchanged
        gap = [rg - gm for _, rg, gm in rows_with]
        total_ffn = sum(d * ffn_flops(n, c) for n, c, d in costmodel.IMAGE_MODEL_STAGES)
        bare = [(rg - total_ffn, gm - total_ffn) for _, rg, gm in rows_with]
        assert [b[0] - b[1] for b in bare] == gap

    def test_reference_stages_follow_the_default_image_model(self):
        # the sweep's constants describe ImageModelConfig() on 224 x 224
        # inputs: a 56 x 56 grid after the 4x stem, halved by each merge
        cfg = ImageModelConfig()
        side = 224 // PATCH_SIZE
        assert side == 56
        want = tuple(((side // 2 ** s) ** 2, channels, depth)
                     for s, (channels, depth)
                     in enumerate(zip(cfg.channels, cfg.depths)))
        assert costmodel.IMAGE_MODEL_STAGES == want
