"""Simulated cuDNN v2: convolution and pooling primitives (§6.1).

All three deep-learning stacks the paper compares (Caffe, Torch,
MAPS-Multi) call the same cuDNN v2 routines — which is why their
single-GPU throughputs coincide in Fig. 11. Functional bodies use
numpy sliding windows; costs are FLOP counts over the calibrated
``cudnn_conv_efficiency`` fraction of FMA peak.

Layouts are NCHW throughout, filters KCRS, 'valid' convolution (LeNet
uses no padding).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.hardware.calibration import GpuCalibration
from repro.hardware.specs import GPUSpec


# -- functional primitives -----------------------------------------------------
def conv2d_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: (B,C,H,W) x (K,C,R,S) -> (B,K,H',W')."""
    windows = sliding_window_view(x, w.shape[2:], axis=(2, 3))
    return np.einsum("bchwrs,kcrs->bkhw", windows, w, optimize=True)


def conv2d_backward_data(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input: full correlation with flipped filters."""
    r, s = w.shape[2:]
    dy_p = np.pad(dy, ((0, 0), (0, 0), (r - 1, r - 1), (s - 1, s - 1)))
    windows = sliding_window_view(dy_p, (r, s), axis=(2, 3))
    w_flip = w[:, :, ::-1, ::-1]
    return np.einsum("bkhwrs,kcrs->bchw", windows, w_flip, optimize=True)


def conv2d_backward_filter(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the filters: correlate inputs with output grads.

    ``dw[k,c,r,s] = sum_{b,h,w} x[b,c,h+r,w+s] * dy[b,k,h,w]`` — sliding
    dy-sized windows over x, one per (r,s) filter offset.
    """
    windows = sliding_window_view(x, dy.shape[2:], axis=(2, 3))
    # windows: (B, C, R, S, H', W')
    return np.einsum("bcrshw,bkhw->kcrs", windows, dy, optimize=True)


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/stride-2 max pooling. Returns (pooled, argmax-index array).

    The window element ``(i, j)`` has index ``2*i + j``; the max is folded
    over the four stride-2 views in that order, and the index is the first
    one equal to the max, or the first NaN if the window holds one (NaN
    propagates through the max), exactly as ``argmax`` over the window.
    """
    b, c, h, w = x.shape
    assert h % 2 == 0 and w % 2 == 0, "LeNet pools even extents"
    views = (x[..., 0::2, 0::2], x[..., 0::2, 1::2],
             x[..., 1::2, 0::2], x[..., 1::2, 1::2])
    pooled = np.maximum(views[0], views[1])
    np.maximum(pooled, views[2], out=pooled)
    np.maximum(pooled, views[3], out=pooled)
    # Per view: "not the argmax yet" (neither equal to the max nor NaN).
    # The index is the number of leading views that miss.
    miss = [(v != pooled) & (v == v) for v in views[:3]]
    arg = miss[2].view(np.int8).copy()
    arg += 1
    arg *= miss[1]
    arg += 1
    arg *= miss[0]
    return pooled, arg


def maxpool2x2_backward(
    dy: np.ndarray, arg: np.ndarray, in_shape: tuple[int, ...]
) -> np.ndarray:
    """Route gradients to each pooling window's argmax element."""
    b, c, hh, ww = dy.shape
    dx_tiles = np.zeros((b, c, hh, ww, 4), dtype=dy.dtype)
    np.put_along_axis(dx_tiles, arg[..., None].astype(np.int64), dy[..., None], axis=-1)
    dx = dx_tiles.reshape(b, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dx.reshape(in_shape)


# -- cost models ----------------------------------------------------------------
def conv_flops(
    batch: int, in_ch: int, out_ch: int, out_h: int, out_w: int,
    r: int, s: int,
) -> float:
    return 2.0 * batch * out_ch * in_ch * out_h * out_w * r * s


def conv_time(
    spec: GPUSpec, calib: GpuCalibration, flops: float
) -> float:
    """cuDNN kernel time at the calibrated conv efficiency."""
    return flops / (spec.peak_sp_gflops * 1e9 * calib.cudnn_conv_efficiency)


def pool_time(spec: GPUSpec, calib: GpuCalibration, elems: int,
              itemsize: int = 4) -> float:
    """Pooling is memory bound: one read of the input, one write of the
    (4x smaller) output."""
    nbytes = elems * itemsize * 1.25
    return nbytes / (spec.mem_bandwidth * calib.stream_efficiency)
