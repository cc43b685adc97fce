"""Closed-form FLOP counts for the two relational layers.

Counting conventions match the instrumented tensor ops: a multiply-add is
2 FLOPs, an elementwise product or add is 1 FLOP per element, and broadcast
materializations (outer products with a ones vector) are 1 FLOP per output
element. Bias additions are excluded.

With R relations, average in-degree dbar per relation, V nodes and C channels:

* relational convolution:  R*(2*dbar*V*C + 2*V*C^2) + 2*V*C^2 + V*C
  steps: [aggregate 2*dbar*R*V*C, stacked transform 2*R*V*C^2,
          self update 2*V*C^2 + V*C]

* gated message passing:   R*(2*dbar + 7)*V*C + 6*V*C^2
  steps: [input transform 2*V*C^2,
          aggregate + channel weights 2*dbar*R*V*C + 2*R*V*C,
          relation weighting 5*R*V*C - V*C,
          output transform 2*V*C^2,
          gated self update 2*V*C^2 + V*C]

All arithmetic is exact (Fractions); results are rounded to integers only at
the end, and are exactly integral whenever dbar*V is integral. The gated
layer's cost is linear in R with slope (2*dbar + 7)*V*C, versus the
convolution's R-slope of 2*dbar*V*C + 2*V*C^2: adding a relation costs O(C)
per node instead of O(C^2), which is the whole point of the design.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContractError

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # binary floats convert exactly


def _validate(num_relations, dbar, num_nodes, channels, require_relations):
    if require_relations and num_relations < 1:
        raise ContractError("at least one relation is required")
    if num_relations < 0 or num_nodes < 0 or channels < 0:
        raise ContractError("counts must be non-negative")
    if _as_fraction(dbar) < 0:
        raise ContractError("average degree must be non-negative")


def _round(frac: Fraction) -> int:
    if frac.denominator == 1:
        return frac.numerator
    return int(frac + Fraction(1, 2))


def rgconv_step_flops(num_relations: int, dbar, num_nodes: int, channels: int) -> list[int]:
    """Per-step costs of the relational convolution: [aggregate, transform, self]."""
    _validate(num_relations, dbar, num_nodes, channels, require_relations=False)
    r, v, c = num_relations, num_nodes, channels
    d = _as_fraction(dbar)
    steps = [
        2 * d * r * v * c,
        Fraction(2 * r * v * c * c),
        Fraction(2 * v * c * c + v * c),
    ]
    return [_round(s) for s in steps]


def rgconv_flops(num_relations: int, dbar, num_nodes: int, channels: int) -> int:
    """Total relational-convolution cost; equals the sum of its step costs."""
    _validate(num_relations, dbar, num_nodes, channels, require_relations=False)
    r, v, c = num_relations, num_nodes, channels
    d = _as_fraction(dbar)
    total = r * (2 * d * v * c + Fraction(2 * v * c * c)) + 2 * v * c * c + v * c
    return _round(total)


def grmp_step_flops(num_relations: int, dbar, num_nodes: int, channels: int) -> list[int]:
    """Per-step costs of the gated layer:
    [input transform, aggregate + channel weights, relation weighting,
     output transform, gated self update]."""
    _validate(num_relations, dbar, num_nodes, channels, require_relations=True)
    r, v, c = num_relations, num_nodes, channels
    d = _as_fraction(dbar)
    steps = [
        Fraction(2 * v * c * c),
        2 * d * r * v * c + 2 * r * v * c,
        Fraction(5 * r * v * c - v * c),
        Fraction(2 * v * c * c),
        Fraction(2 * v * c * c + v * c),
    ]
    return [_round(s) for s in steps]


def grmp_flops(num_relations: int, dbar, num_nodes: int, channels: int) -> int:
    """Total gated-layer cost; linear in the relation count."""
    _validate(num_relations, dbar, num_nodes, channels, require_relations=True)
    r, v, c = num_relations, num_nodes, channels
    d = _as_fraction(dbar)
    total = r * (2 * d + 7) * v * c + Fraction(6 * v * c * c)
    return _round(total)


def ffn_flops(num_nodes: int, channels: int) -> int:
    """Two-layer feed-forward cost: expand, nonlinearity (1/element), project."""
    v, c, g = num_nodes, channels, FFN_EXPANSION
    return 2 * v * c * (g * c) + v * (g * c) + 2 * v * (g * c) * c


# Stage geometry of the reference image model on 224 x 224 inputs:
# (nodes, channels, depth) after the 4x stem and each 2x merge, and the
# hidden width of its feed-forward blocks in multiples of their input, which
# `layers.FFNParams` allocates.
IMAGE_MODEL_STAGES = (
    (56 * 56, 96, 2),
    (28 * 28, 192, 2),
    (14 * 14, 384, 6),
    (7 * 7, 768, 2),
)
FFN_EXPANSION = 4


def sweep_relation_counts(k_max: int):
    """Model-level totals as the relation count grows.

    For K = 1..k_max, sums layer costs over IMAGE_MODEL_STAGES with
    R = K relations of average degree 1 each, adding the feed-forward cost
    identically to both columns. Returns rows of (K, rgconv_total, grmp_total).
    """
    if k_max < 1:
        raise ContractError("k_max must be positive")
    rows = []
    for k in range(1, k_max + 1):
        rg = 0
        gm = 0
        for nodes, channels, depth in IMAGE_MODEL_STAGES:
            ffn = ffn_flops(nodes, channels)
            rg += depth * (rgconv_flops(k, 1, nodes, channels) + ffn)
            gm += depth * (grmp_flops(k, 1, nodes, channels) + ffn)
        rows.append((k, rg, gm))
    return rows


def sweep_csv(rows) -> str:
    lines = ["K,rgconv_flops,grmp_flops"]
    for k, rg, gm in rows:
        lines.append(f"{k},{rg},{gm}")
    return "\n".join(lines) + "\n"
