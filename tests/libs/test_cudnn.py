"""Numerical tests for the simulated cuDNN primitives (§6.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GTX_780, calibration_for
from repro.libs.cudnn import (
    conv2d_backward_data,
    conv2d_backward_filter,
    conv2d_forward,
    conv_flops,
    conv_time,
    maxpool2x2_backward,
    maxpool2x2_forward,
    pool_time,
)


def naive_conv(x, w):
    b, c, h, ww = x.shape
    k, _, r, s = w.shape
    out = np.zeros((b, k, h - r + 1, ww - s + 1), np.float32)
    for bi in range(b):
        for ki in range(k):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    out[bi, ki, i, j] = (
                        x[bi, :, i : i + r, j : j + s] * w[ki]
                    ).sum()
    return out


class TestConvForward:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        assert np.allclose(conv2d_forward(x, w), naive_conv(x, w), atol=1e-4)

    def test_identity_filter(self):
        x = np.random.default_rng(1).random((1, 1, 5, 5)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        assert np.allclose(conv2d_forward(x, w), x[:, :, 1:-1, 1:-1])

    def test_output_shape(self):
        x = np.zeros((8, 1, 28, 28), np.float32)
        w = np.zeros((20, 1, 5, 5), np.float32)
        assert conv2d_forward(x, w).shape == (8, 20, 24, 24)


class TestConvGradients:
    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_backward_data_numerical(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        g = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
        dx = conv2d_backward_data(g, w)
        idx = tuple(rng.integers(0, s) for s in x.shape)
        eps = 1e-5
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num = (
            (conv2d_forward(xp, w) * g).sum()
            - (conv2d_forward(xm, w) * g).sum()
        ) / (2 * eps)
        assert num == pytest.approx(dx[idx], rel=1e-4, abs=1e-6)

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_backward_filter_numerical(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        g = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
        dw = conv2d_backward_filter(x, g)
        idx = tuple(rng.integers(0, s) for s in w.shape)
        eps = 1e-5
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        num = (
            (conv2d_forward(x, wp) * g).sum()
            - (conv2d_forward(x, wm) * g).sum()
        ) / (2 * eps)
        assert num == pytest.approx(dw[idx], rel=1e-4, abs=1e-6)


def reshape_argmax_pool(x):
    """The window-copy pool the strided one replaced: the oracle."""
    b, c, h, w = x.shape
    tiles = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = tiles.reshape(b, c, h // 2, w // 2, 4)
    arg = flat.argmax(axis=-1)
    return flat.max(axis=-1), arg.astype(np.int8)


def pool_inputs(shape, seed):
    """Generic, tie-heavy, mixed-signed-zero and NaN-bearing inputs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    ties = np.round(x)
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0).astype(np.float32)
    one_nan = x.copy()
    one_nan[..., 1::2, 0::2] = np.nan
    many_nan = np.where(rng.random(shape) < 0.4, np.float32(np.nan), ties)
    zero_nan = np.where(rng.random(shape) < 0.3, np.float32(np.nan), zeros)
    return {"random": x, "ties": ties, "zeros": zeros,
            "one_nan": one_nan, "many_nan": many_nan, "zero_nan": zero_nan}


class TestPooling:
    @pytest.mark.parametrize("shape", [(8, 20, 24, 24), (8, 50, 8, 8),
                                       (3, 2, 6, 10)])
    def test_forward_matches_reshape_argmax_oracle(self, shape):
        """Pooled values and the int8 mask are bit-identical to the
        oracle, including tie order, signed zeros and NaN precedence."""
        for name, x in pool_inputs(shape, seed=sum(shape)).items():
            y, arg = maxpool2x2_forward(x)
            y0, arg0 = reshape_argmax_pool(x)
            assert y.dtype == y0.dtype and y.shape == y0.shape, name
            assert y.tobytes() == y0.tobytes(), name
            assert arg.dtype == np.int8 and arg.shape == arg0.shape, name
            assert arg.tobytes() == arg0.tobytes(), name

    def test_forward_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y, arg = maxpool2x2_forward(x)
        assert (y[0, 0] == [[5, 7], [13, 15]]).all()

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        y, arg = maxpool2x2_forward(x)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx = maxpool2x2_backward(dy, arg, x.shape)
        # Gradient mass is conserved.
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-5)
        # Non-argmax positions receive zero.
        assert (dx != 0).sum() <= dy.size

    def test_backward_identity_through_max(self):
        x = np.zeros((1, 1, 4, 4), np.float32)
        x[0, 0, 0, 0] = 5.0  # the max of its window
        y, arg = maxpool2x2_forward(x)
        dy = np.ones_like(y)
        dx = maxpool2x2_backward(dy, arg, x.shape)
        assert dx[0, 0, 0, 0] == 1.0

    def test_odd_extent_rejected(self):
        with pytest.raises(AssertionError):
            maxpool2x2_forward(np.zeros((1, 1, 5, 4), np.float32))


class TestCostModels:
    def test_conv_flops_formula(self):
        # LeNet conv1, batch 1: 2*20*1*24*24*25 = 576000
        assert conv_flops(1, 1, 20, 24, 24, 5, 5) == 576_000

    def test_conv_time_positive_scaling(self):
        calib = calibration_for(GTX_780)
        t1 = conv_time(GTX_780, calib, conv_flops(64, 1, 20, 24, 24, 5, 5))
        t2 = conv_time(GTX_780, calib, conv_flops(128, 1, 20, 24, 24, 5, 5))
        assert t2 == pytest.approx(2 * t1)

    def test_pool_time_memory_bound(self):
        calib = calibration_for(GTX_780)
        assert pool_time(GTX_780, calib, 1 << 20) > 0
        assert pool_time(GTX_780, calib, 2 << 20) == pytest.approx(
            2 * pool_time(GTX_780, calib, 1 << 20)
        )
