"""Hypothesis property tests over the numeric kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernels import nn as K
from tests.test_kernels_nn import reference_pool


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    o=st.integers(1, 3),
    height=st.integers(1, 10),
    width=st.integers(1, 10),
    pad=st.integers(0, 2),
    nhwc_view=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_winograd_equals_im2col_everywhere(n, c, o, height, width, pad,
                                           nhwc_view, seed):
    assume(min(height, width) + 2 * pad >= 3)
    rng = np.random.default_rng(seed)
    if nhwc_view:  # the layout the graph backend passes: a transposed view
        x = rng.standard_normal((n, height, width, c)).transpose(0, 3, 1, 2)
    else:
        x = rng.standard_normal((n, c, height, width))
    w = rng.standard_normal((o, c, 3, 3))
    winograd = K.conv2d_forward(x, w, (1, 1), (pad, pad), algorithm="winograd")
    im2col = K.conv2d_forward(x, w, (1, 1), (pad, pad), algorithm="im2col")
    np.testing.assert_allclose(winograd, im2col, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    kh=st.integers(1, 5),
    stride=st.integers(1, 3),
    size=st.integers(8, 14),
    seed=st.integers(0, 10_000),
)
def test_fft_equals_im2col(kh, stride, size, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, size, size))
    w = rng.standard_normal((2, 2, kh, kh))
    pad = kh // 2
    fft = K.conv2d_forward(x, w, (stride, stride), (pad, pad), algorithm="fft")
    im2col = K.conv2d_forward(x, w, (stride, stride), (pad, pad),
                              algorithm="im2col")
    np.testing.assert_allclose(fft, im2col, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(4, 12),
    kernel=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_maxpool_output_is_window_max(size, kernel, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, size, size))
    out = K.maxpool2d_forward(x, (kernel, kernel), (kernel, kernel))
    oh, ow = out.shape[2], out.shape[3]
    for i in range(oh):
        for j in range(ow):
            window = x[0, 0, i * kernel:(i + 1) * kernel,
                       j * kernel:(j + 1) * kernel]
            assert out[0, 0, i, j] == window.max()


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 9),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    tied=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_pooling_equals_window_reference(size, kernel, stride, pad, tied,
                                         seed):
    assume(size + 2 * pad >= kernel and pad < kernel)
    rng = np.random.default_rng(seed)
    x = (np.full((2, 3, size, size), -1.5) if tied
         else rng.standard_normal((2, 3, size, size)))
    args = ((kernel, kernel), (stride, stride), (pad, pad))
    np.testing.assert_array_equal(K.maxpool2d_forward(x, *args),
                                  reference_pool(x, *args, reduce="max"))
    np.testing.assert_allclose(K.avgpool2d_forward(x, *args),
                               reference_pool(x, *args, reduce="mean"),
                               rtol=1e-12, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(2, 6),
    channels=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_batch_norm_training_zero_mean_unit_var(batch, channels, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, channels, 3, 3)) * 5 + 2
    out, _, _, _ = K.batch_norm_forward(
        x, np.ones(channels), np.zeros(channels),
        np.zeros(channels), np.ones(channels), training=True)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1, atol=1e-2)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(2, 8),
    scale=st.floats(0.1, 50.0),
    seed=st.integers(0, 10_000),
)
def test_softmax_is_probability_distribution(rows, cols, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * scale
    out = K.softmax(x)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert (out >= 0).all()
    # order preserved: argmax of logits == argmax of probabilities
    np.testing.assert_array_equal(np.argmax(x, axis=-1),
                                  np.argmax(out, axis=-1))


@settings(max_examples=30, deadline=None)
@given(
    vocab=st.integers(2, 20),
    dim=st.integers(1, 8),
    count=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
def test_embedding_backward_row_sums(vocab, dim, count, seed):
    """Each vocab row's gradient equals the sum of grads at its occurrences."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, vocab, (1, count))
    grad_out = rng.standard_normal((1, count, dim))
    grad_w = K.embedding_backward(grad_out, indices, vocab)
    for row in range(vocab):
        expected = grad_out[0][indices[0] == row].sum(axis=0) \
            if (indices[0] == row).any() else np.zeros(dim)
        np.testing.assert_allclose(grad_w[row], expected, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(6, 12),
    kernel=st.integers(2, 3),
    seed=st.integers(0, 10_000),
)
def test_avgpool_backward_distributes_uniformly(size, kernel, seed):
    rng = np.random.default_rng(seed)
    usable = (size // kernel) * kernel
    grad_out = rng.standard_normal((1, 1, size // kernel, size // kernel))
    grad_x = K.avgpool2d_backward(grad_out, (1, 1, size, size),
                                  (kernel, kernel), (kernel, kernel))
    # total gradient mass is conserved
    np.testing.assert_allclose(grad_x.sum(), grad_out.sum(), atol=1e-10)
