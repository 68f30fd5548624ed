"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps one array plus an optional gradient and links to the
tensors that produced it, so the compute graph is the implicit DAG of
parent pointers. backward() walks that DAG once in reverse topological
order and accumulates gradients additively across fan-out. It consumes
the tape as it goes: each interior node drops its gradient, its parent
links and its backward rule once it has propagated, so activations are
freed as soon as their last consumer is done. Only leaves (parameters
and inputs) keep their .grad.

Only the primitives the map encoder and policy heads need are provided;
each carries a hand-written backward rule. Everything is float64: the
models are tiny and exact central-difference gradient checking matters
more than speed here.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ConfigError, ContractError, ShapeError, StateError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that skips tape construction (rollouts, eval)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """float64 array + optional grad + tape links."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data, parents, op, backward) -> Tensor:
    """Build an op output; track it only if the tape is live and needed."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        track = tuple(p for p in parents if p.requires_grad)
        return Tensor(data, requires_grad=True, op=op, parents=track, backward=backward)
    return Tensor(data, op=op)


def _spent(g):
    raise StateError("backward through a tape that an earlier backward consumed")


def backward(loss: Tensor):
    """Populate .grad on every leaf reachable from a scalar loss.

    The tape is consumed: once a node has propagated, its grad is None,
    its parent links are cleared and its backward rule is replaced by
    one that raises StateError. A second backward on the same loss, or a
    new loss built on a spent node, therefore fails instead of silently
    contributing nothing. Leaves (no backward rule) keep their .grad.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # Iterative post-order: each node appended after all its parents.
    order = []
    state: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node._parents:
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        elif st == 1:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._parents = ()
        node._backward = _spent


# ---------------------------------------------------------------- elementwise


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), "add", bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), "sub", bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), "mul", bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first operand."""
    _same_shape(a, b, "minimum")
    take_a = a.data <= b.data

    def bw(g):
        _accum(a, g * take_a)
        _accum(b, g * ~take_a)

    return _node(np.minimum(a.data, b.data), (a, b), "minimum", bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return _node(-a.data, (a,), "neg", bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), "scale", bw)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def bw(g):
        _accum(a, g)

    return _node(a.data + float(c), (a,), "add_scalar", bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        _accum(a, g * mask)

    return _node(a.data * mask, (a,), "relu", bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        _accum(a, g * out * (1.0 - out))

    return _node(out, (a,), "sigmoid", bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return _node(out, (a,), "tanh", bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bw(g):
        _accum(a, g * out)

    return _node(out, (a,), "exp", bw)


def clip_value(a: Tensor, lo: float, hi: float) -> Tensor:
    """min(max(x, lo), hi); gradient passes only strictly inside the bounds."""
    if lo > hi:
        raise ConfigError(f"clip_value: lo={lo} > hi={hi}")
    inside = (a.data > lo) & (a.data < hi)

    def bw(g):
        _accum(a, g * inside)

    return _node(np.clip(a.data, lo, hi), (a,), "clip_value", bw)


def square(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g * 2.0 * a.data)

    return _node(a.data * a.data, (a,), "square", bw)


# ---------------------------------------------------------------- reductions


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _node(a.data.sum(), (a,), "sum_all", bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bw(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return _node(a.data.mean(), (a,), "mean_all", bw)


def global_avg_pool(a: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] spatial mean."""
    if a.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [N,C,H,W], got {a.data.shape}")
    n, c, h, w = a.data.shape

    def bw(g):
        _accum(a, np.broadcast_to(g[:, :, None, None], a.data.shape) / (h * w))

    return _node(a.data.mean(axis=(2, 3)), (a,), "global_avg_pool", bw)


# ---------------------------------------------------------------- structural


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), "reshape", bw)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offs = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat", bw)


def pick(a: Tensor, idx) -> Tensor:
    """Row-wise column pick: out[n] = a[n, idx[n]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ShapeError(f"pick: got {a.data.shape} and idx {idx.shape}")
    rows = np.arange(a.data.shape[0])

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[rows, idx] = g
            _accum(a, ga)

    return _node(a.data[rows, idx], (a,), "pick", bw)


def embedding(table: Tensor, idx) -> Tensor:
    """Row lookup with scatter-add backward: out[n] = table[idx[n]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.data.shape[0]):
        raise ContractError(f"embedding index out of range for table of {table.data.shape[0]} rows")

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            _accum(table, gt)

    return _node(table.data[idx], (table,), "embedding", bw)


# ---------------------------------------------------------------- dense / conv


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), "matmul", bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[N,Din] @ weight[Din,Dout] + bias[Dout]."""
    if x.data.ndim != 2:
        raise ShapeError(f"linear expects 2-D input, got {x.data.shape}")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"linear: input {x.data.shape} incompatible with weight {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"linear: bias {bias.data.shape} incompatible with weight {weight.data.shape}")

    def bw(g):
        _accum(x, g @ weight.data.T)
        _accum(weight, x.data.T @ g)
        _accum(bias, g.sum(axis=0))

    return _node(x.data @ weight.data + bias.data, (x, weight, bias), "linear", bw)


_BLOCK_BYTES = 1 << 20  # im2col columns per conv2d block: about an L2 cache


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the last two axes by p on each side (np.pad costs more at batch 1)."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p : p + h, p : p + w] = x
    return out


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """[N,C,H,W] -> [N, C*k*k, ho*wo]: the first ho x wo kxk windows at the stride.

    One strided view indexed (n, c, i, j, oy, ox) reads xp[n, c, oy*stride + i,
    ox*stride + j]; the reshape copies it out in that order.
    """
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False
    )
    return win.reshape(n, c * k * k, ho * wo)


def _col2im(gcols: np.ndarray, xshape, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    n, c, h, w = xshape
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    gc = gcols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gc[:, :, i, j]
    if pad:
        return gxp[:, :, pad:-pad, pad:-pad]
    return gxp


_POOL: ThreadPoolExecutor | None = None  # conv2d's block threads, made on first use


def _ways() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool():
    """A forked child has none of its parent's threads; it makes its own pool."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _for_each_block(fn, blocks):
    """Call fn(b) for every block, on up to _ways() threads.

    The blocks split into contiguous runs, one per way, and the calling
    thread runs the first. One way, or one block, runs inline and starts
    no thread. fn(b) must write only b's slice of its outputs, so the
    bits do not depend on how many ways ran. Every run is waited for
    before this returns or raises, so no thread still writes into an
    array the caller holds; an exception in any run re-raises here.
    """

    def run(bs):
        for b in bs:
            fn(b)

    cpus = _ways()
    ways = min(cpus, len(blocks))
    if ways <= 1:
        run(blocks)
        return
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="conv2d")
    m = len(blocks)
    runs = [blocks[i * m // ways : (i + 1) * m // ways] for i in range(ways)]
    futures = [_POOL.submit(run, bs) for bs in runs[1:]]
    try:
        run(runs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation with zero padding. Input [N,Cin,H,W] or [Cin,H,W].

    im2col plus one GEMM per direction (Chellapilla et al. 2006). At
    stride 1 the input gradient is itself a correlation: the output
    gradient, zero-padded by k-1-pad, against the flipped kernel with
    its channel axes swapped. At stride 2 that padded gradient would
    need zeros between its samples, so there the column gradient is
    scattered back with _col2im instead.

    The columns are built one block of whole samples at a time, about
    _BLOCK_BYTES each, and each block's GEMMs run before the next block
    is built (cache blocking, Goto and van de Geijn 2008). A whole-batch
    column matrix is k*k times the input, tens of MB at encoder shapes,
    and would be written once and read once far outside the cache. The
    bits equal those of one batched call: np.matmul on a stacked operand
    makes one GEMM per sample either way, with the same shapes and
    strides, here writing into the block's slice of the output. The
    kernel gradient keeps each sample's product and sums them with the
    same sum over the sample axis, so its additions run in the same
    order. A batch that fits one block takes one call per direction.

    The tape keeps no column matrix: backward rebuilds each block's
    columns from the input it holds to form the kernel gradient, and
    pads only the block it works on.

    Each block writes only its own slice (out[b]; gws[b] and gx[b]), so
    the blocks run on one thread per CPU the process may use
    (_for_each_block). The GEMMs and the sum over gws keep their shapes
    and order, so the bits are the same for any thread count. Worker
    threads call only _pad2d, _im2col, _col2im and numpy, none of which
    perfbench/spans.py wraps: its Recorder keeps one call stack and is
    not thread-safe.
    """
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.data.shape}, kernel {kernel.data.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kernel.data.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {kcin}")
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if stride < 1:
        raise ConfigError(f"conv2d: stride must be >= 1, got {stride}")
    if (h + 2 * pad - kh) % stride or (w + 2 * pad - kw) % stride:
        raise ConfigError(
            f"conv2d: non-integral output size for input {h}x{w}, kernel {kh}, stride {stride}, pad {pad}"
        )
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    ckk = cin * kh * kw
    step = max(1, _BLOCK_BYTES // (ckk * ho * wo * 8))
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]

    def columns(b):
        xb = xd[b]
        return _im2col(_pad2d(xb, pad) if pad else xb, kh, stride, ho, wo)

    wmat = kernel.data.reshape(cout, ckk)
    out = np.empty((n, cout, ho * wo))
    _for_each_block(lambda b: np.matmul(wmat[None], columns(b), out=out[b]), blocks)
    out = out.reshape(n, cout, ho, wo)
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    if squeeze:
        out = out[0]
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        gd = g[None] if squeeze else g
        gflat = gd.reshape(n, cout, ho * wo)
        if kernel.requires_grad:
            gws = np.empty((n, cout, ckk))
        if x.requires_grad:
            gx = np.empty((n, cin, h, w))
            if stride == 1:
                q = kh - 1 - pad  # q < 0: the output overhangs the input; crop it
                wflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * kh * kw)
                gxflat = gx.reshape(n, cin, h * w)

        def block(b):
            if kernel.requires_grad:
                np.matmul(gflat[b], columns(b).transpose(0, 2, 1), out=gws[b])
            if x.requires_grad:
                if stride == 1:
                    gb = gd[b]
                    gp = _pad2d(gb, q) if q > 0 else gb[:, :, -q:, -q:]
                    np.matmul(wflip[None], _im2col(gp, kh, 1, h, w), out=gxflat[b])
                else:
                    gcols = np.matmul(wmat.T[None], gflat[b])
                    gx[b] = _col2im(gcols, gx[b].shape, kh, stride, pad, ho, wo)

        _for_each_block(block, blocks)
        if kernel.requires_grad:
            _accum(kernel, gws.sum(axis=0).reshape(kernel.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, gd.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            _accum(x, gx[0] if squeeze else gx)

    return _node(out, parents, "conv2d", bw)


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel kxk spatial convolution, stride 1, size-preserving pad."""
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    n, c, h, w = xd.shape
    kc, kh, kw = kernel.data.shape
    if kc != c or kh != kw or kh % 2 == 0:
        raise ShapeError(f"depthwise_conv2d: input {x.data.shape}, kernel {kernel.data.shape}")
    pad = (kh - 1) // 2
    xp = _pad2d(xd, pad)
    out = np.zeros_like(xd)
    for i in range(kh):
        for j in range(kw):
            out += kernel.data[None, :, i, j, None, None] * xp[:, :, i : i + h, j : j + w]
    if squeeze:
        out_t = out[0]
    else:
        out_t = out

    def bw(g):
        gd = g[None] if squeeze else g
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.data)
            for i in range(kh):
                for j in range(kw):
                    gk[:, i, j] = (gd * xp[:, :, i : i + h, j : j + w]).sum(axis=(0, 2, 3))
            _accum(kernel, gk)
        if x.requires_grad:
            gp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gp[:, :, i : i + h, j : j + w] += kernel.data[None, :, i, j, None, None] * gd
            gx = gp[:, :, pad : pad + h, pad : pad + w]
            _accum(x, gx[0] if squeeze else gx)

    return _node(out_t, (x, kernel), "depthwise_conv2d", bw)


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
) -> Tensor:
    """Per-channel normalization over (N,H,W) with affine transform.

    train=True uses batch statistics and updates the running arrays in
    place (exponential moving average); train=False reads the running
    statistics and leaves them as they are.
    """
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects [N,C,H,W], got {x.data.shape}")
    n, c, h, w = xd.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm2d: affine shapes {gamma.data.shape}/{beta.data.shape} for {c} channels")
    if train:
        mean = xd.mean(axis=(0, 2, 3))
        d = xd - mean[None, :, None, None]  # centered once: the variance and xhat share it
        var = (d * d).mean(axis=(0, 2, 3))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean = running_mean
        var = running_var
        d = xd - mean[None, :, None, None]
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = d * invstd[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bw(g):
        gd = g[None] if squeeze else g
        gbeta = gd.sum(axis=(0, 2, 3))
        ggamma = np.einsum("nchw,nchw->c", gd, xhat)
        if beta.requires_grad:
            _accum(beta, gbeta)
        if gamma.requires_grad:
            _accum(gamma, ggamma)
        if x.requires_grad:
            gx_scale = (gamma.data * invstd)[None, :, None, None]
            if train:
                # the batch statistics' terms reuse the beta and gamma sums
                m = n * h * w
                gx = gx_scale * (gd - (gbeta / m)[None, :, None, None] - xhat * (ggamma / m)[None, :, None, None])
            else:
                gx = gd * gx_scale
            _accum(x, gx[0] if squeeze else gx)

    return _node(out[0] if squeeze else out, (x, gamma, beta), "batchnorm2d", bw)


# ---------------------------------------------------------------- softmax


def log_softmax(logits: Tensor) -> Tensor:
    if logits.data.ndim != 2:
        raise ShapeError(f"log_softmax expects [N,A], got {logits.data.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = z - lse
    probs = np.exp(out)

    def bw(g):
        _accum(logits, g - probs * g.sum(axis=1, keepdims=True))

    return _node(out, (logits,), "log_softmax", bw)


def softmax(logits: Tensor) -> Tensor:
    """Probabilities over the last axis of [N,A] logits."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax expects [N,A], got {logits.data.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        _accum(logits, out * (g - (g * out).sum(axis=1, keepdims=True)))

    return _node(out, (logits,), "softmax", bw)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over every element of the squared difference."""
    return mean_all(square(sub(pred, target)))
