"""Reverse-mode autodiff with exact FLOP metering.

Every tensor operation in this package does two jobs: it records the local
gradient rule for the backward pass, and it charges its floating-point cost
to an active counter, by operation kind. This script walks both features on
small examples where the right answers can be checked by hand.
"""

import numpy as np

from relmp.tensor import (Tensor, add, bce_with_logits, count_flops,
                          counting_paused, default_dtype,
                          finite_difference_check, hadamard, linear, matmul,
                          relu, sum_all)


def section(title):
    print()
    print(f"== {title} ==")


def main():
    # tensors are float32 unless a default_dtype scope says otherwise; the
    # gradient checks run in float64
    with default_dtype(np.float64):
        section("gradients of a tiny expression")
        # loss = sum(relu(x @ w) * g): chosen so the hand derivation is short.
        x = Tensor(np.array([[1.5, -2.0], [0.5, 3.0]]), requires_grad=True)
        w = Tensor(np.array([[2.0, 0.0], [1.0, -1.0]]), requires_grad=True)
        g = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = sum_all(hadamard(relu(matmul(x, w)), g))
        loss.backward()
        print("loss          :", float(loss.data))
        print("dloss/dx      :\n", x.grad)
        # By hand: y = x@w = [[1, 2], [4, -3]], the relu keeps y[0,0], y[0,1],
        # y[1,0]; dloss/dy = g * keep-mask = [[1, 2], [3, 0]];
        # dloss/dx = dldy @ w.T.
        mask = np.array([[1.0, 2.0], [3.0, 0.0]])
        print("hand-derived  :\n", mask @ w.data.T)
        assert np.allclose(x.grad, mask @ w.data.T)

        section("the same check, automated with central differences")
        worst = finite_difference_check(
            lambda: sum_all(hadamard(relu(matmul(x, w)), g)), [x, w])
        print(f"worst relative gradient error across x and w: {worst:.3e}")
        assert worst < 1e-7

    section("FLOP metering, by operation kind")
    a = Tensor(np.ones((8, 16)))
    b = Tensor(np.ones((16, 4)))
    c = Tensor(np.ones((8, 4)))
    with count_flops() as counter:
        y = matmul(a, b)          # 2 * 8 * 16 * 4 = 1024
        y = add(y, c)             # 8 * 4         = 32
        y = relu(y)               # 8 * 4         = 32
    print("metered:", counter.snapshot())
    assert counter.total == 1024 + 32 + 32
    print("total  :", counter.total, "(= 2*8*16*4 + 8*4 + 8*4)")

    section("biases are not metered")
    # The cost model leaves biases out, so a linear map with a bias is one
    # op that charges its matmul only.
    bias = Tensor(np.ones(4))
    with count_flops() as counter:
        y = linear(a, b, bias)    # 2 * 8 * 16 * 4 = 1024; the bias is free
    print("linear with a bias:", counter.snapshot())
    assert counter.snapshot() == {"matmul": 1024}

    section("pausing the meter")
    # counting_paused() leaves a whole scope unmetered; the relational
    # convolution adds its per-relation biases inside one.
    with count_flops() as counter:
        y = matmul(a, b)
        with counting_paused():
            y = add(y, c)
    print("with the add paused:", counter.snapshot())
    assert counter.total == 1024

    section("losses are metered too")
    logits = Tensor(np.zeros((6, 1)))
    targets = np.ones((6, 1))
    with count_flops() as counter:
        bce_with_logits(logits, targets)
    print("binary cross-entropy on 6 scores:", counter.snapshot())

    print()
    print("all checks passed")


if __name__ == "__main__":
    main()
