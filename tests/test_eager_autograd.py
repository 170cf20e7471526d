"""Autograd engine: numeric grad checks per op, graph traversal, accumulation."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.eager as E
from repro.eager import F, no_grad
from tests.conftest import numeric_gradient


def check_grad(build, *arrays, atol=1e-5):
    """build(*tensors) -> output tensor; checks grads of every input."""
    tensors = [E.tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    grad_out = np.random.default_rng(7).standard_normal(out.shape)
    out.backward(grad_out)
    for tensor, array in zip(tensors, arrays):
        def forward(t=tensor, a=array):
            fresh = [E.tensor(x) for x in arrays]
            return build(*fresh).data
        want = numeric_gradient(
            lambda: build(*[E.tensor(a2) for a2 in arrays]).data,
            array, grad_out)
        np.testing.assert_allclose(tensor.grad, want, atol=atol,
                                   err_msg=str(build))


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        check_grad(lambda a, b: a + b,
                   rng.standard_normal((3, 4)), rng.standard_normal((4,)))

    def test_sub_broadcast(self, rng):
        check_grad(lambda a, b: a - b,
                   rng.standard_normal((2, 3)), rng.standard_normal((1, 3)))

    def test_mul(self, rng):
        check_grad(lambda a, b: a * b,
                   rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_div(self, rng):
        check_grad(lambda a, b: a / b, rng.standard_normal((2, 2)),
                   rng.standard_normal((2, 2)) + 3.0)

    def test_pow_neg(self, rng):
        check_grad(lambda a: (-(a ** 3.0)).sum().reshape(1),
                   rng.standard_normal((4,)) + 2.0)

    def test_chained_expression(self, rng):
        check_grad(lambda a, b: ((a * b + a) / (b * b + 2.0)).sum().reshape(1),
                   rng.standard_normal((3,)), rng.standard_normal((3,)))


class TestShapedGrads:
    def test_matmul_batched(self, rng):
        check_grad(F.matmul, rng.standard_normal((2, 3, 4)),
                   rng.standard_normal((2, 4, 5)))

    def test_linear_with_bias(self, rng):
        check_grad(lambda x, w, b: F.linear(x, w, b),
                   rng.standard_normal((4, 3)), rng.standard_normal((5, 3)),
                   rng.standard_normal((5,)))

    def test_conv2d_with_bias(self, rng):
        check_grad(lambda x, w, b: F.conv2d(x, w, b, (1, 1), (1, 1),
                                            algorithm="im2col"),
                   rng.standard_normal((1, 2, 5, 5)),
                   rng.standard_normal((3, 2, 3, 3)),
                   rng.standard_normal(3), atol=1e-4)

    def test_reshape_transpose_roundtrip(self, rng):
        check_grad(lambda a: F.transpose(a.reshape(3, 4), (1, 0)),
                   rng.standard_normal(12))

    def test_slice(self, rng):
        check_grad(lambda a: a[1:3], rng.standard_normal((5, 2)))

    def test_concat(self, rng):
        check_grad(lambda a, b: F.concat([a, b], axis=1),
                   rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))

    def test_sum_mean_reductions(self, rng):
        check_grad(lambda a: a.sum(axis=0), rng.standard_normal((3, 4)))
        check_grad(lambda a: a.mean(axis=(0, 2)),
                   rng.standard_normal((2, 3, 4)))

    def test_softmax_cross_entropy(self, rng):
        targets = np.array([0, 2, 1])
        check_grad(lambda a: F.cross_entropy(a, E.tensor(targets)).reshape(1),
                   rng.standard_normal((3, 4)))

    def test_mse(self, rng):
        t = rng.standard_normal((3, 2))
        check_grad(lambda a: F.mse_loss(a, E.tensor(t)).reshape(1),
                   rng.standard_normal((3, 2)))

    def test_embedding_grad_flows_to_weight(self, rng):
        weight = E.tensor(rng.standard_normal((6, 3)), requires_grad=True)
        out = F.embedding(np.array([[0, 1, 1]]), weight)
        out.sum().backward()
        np.testing.assert_allclose(weight.grad[1], 2 * np.ones(3))
        np.testing.assert_allclose(weight.grad[5], np.zeros(3))


class TestEngine:
    def test_scalar_requirement_for_implicit_grad(self, rng):
        t = E.tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = t * 2.0
        with pytest.raises(RuntimeError):
            out.backward()

    def test_diamond_graph_accumulates(self):
        t = E.tensor([3.0], requires_grad=True)
        a = t * 2.0
        b = t * 4.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_reused_input_in_one_op(self):
        t = E.tensor([2.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_repeated_backward_accumulates_grad(self):
        t = E.tensor([1.0], requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_no_grad_blocks_taping(self):
        t = E.tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert out.node is None and not out.requires_grad

    def test_interleaved_no_grad_threads_keep_grad_on(self):
        """Grad mode is per thread: two threads interleaving enter-A,
        enter-B, exit-A, exit-B (as concurrent tool callbacks under
        ``no_grad`` do) leave every thread's grad mode as it found it."""
        from repro.eager.dispatch import grad_enabled
        entered, crossed, exited = (threading.Barrier(2) for _ in range(3))
        seen = {}

        def first():
            with no_grad():
                entered.wait()
                crossed.wait()
            exited.wait()

        def second():
            entered.wait()
            seen["before"] = grad_enabled()  # the other thread is in no_grad
            with no_grad():
                crossed.wait()
                exited.wait()
            seen["after"] = grad_enabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == {"before": True, "after": True}
        assert grad_enabled()
        t = E.tensor([1.0], requires_grad=True)
        assert (t * 2.0).requires_grad

    def test_grad_helper_restores_state(self, rng):
        t = E.tensor(rng.standard_normal(3), requires_grad=True)
        t.grad = np.ones(3)
        out = (t * 2.0).sum()
        grads = E.grad(out, [t])
        np.testing.assert_allclose(grads[0], 2 * np.ones(3))
        np.testing.assert_allclose(t.grad, np.ones(3))  # restored

    def test_deep_chain_no_recursion_error(self):
        t = E.tensor([1.0], requires_grad=True)
        out = t
        for _ in range(500):
            out = out * 1.001
        out.sum().backward()
        assert t.grad is not None

    def test_backward_completion_listener(self):
        from repro.eager import autograd
        fired = []
        autograd.add_backward_completion_listener(lambda: fired.append(1))
        try:
            t = E.tensor([1.0], requires_grad=True)
            (t * 1.0).sum().backward()
        finally:
            autograd.remove_backward_completion_listener(fired.append)
            # remove by identity of the actual registered lambda
            autograd._completion_listeners.clear()
        assert fired == [1]


class TestHypothesisGradcheck:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    def test_tanh_linear_chain(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, cols))
        w = rng.standard_normal((cols, cols))
        t = E.tensor(x, requires_grad=True)
        out = F.tanh(t @ E.tensor(w)).sum()
        out.backward()
        grad_out = np.ones(())
        want = numeric_gradient(
            lambda: np.tanh(x @ w).sum(), x, np.ones(()))
        np.testing.assert_allclose(t.grad, want, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_sum_grad_is_ones(self, n, seed):
        rng = np.random.default_rng(seed)
        t = E.tensor(rng.standard_normal(n), requires_grad=True)
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones(n))
