"""Dense tensors with reverse-mode automatic differentiation.

Layout conventions: activations are NCHW, conv kernels are OIHW, linear
weights are (in_features, out_features). The engine runs at a single global
precision (32 or 64 bit); switch it before creating tensors.

Every operation records a node on a tape when gradients are enabled and at
least one input requires them. A node's backward closure keeps only what the
graph already holds (its inputs and its output) plus per-channel vectors;
conv2d patches, batch norm's centred input and ReLU's mask are rebuilt from
those during backward, with the same float operations as the forward pass.
``bn_relu`` is batch norm and ReLU in one node that holds only its input and
its rectified output, so no batch-norm output stays in the graph; it is
``relu(batchnorm2d(...))`` bit for bit, and the model uses it for every
batch norm.
``backward`` walks the tape once in reverse topological order, accumulates
(never overwrites) gradients, and frees each node's part of the graph as
soon as it has been swept; a second backward on the same loss is an error.
"""

import contextlib
import itertools
import threading

import numpy as np

from .errors import ConfigurationError, DataError, NumericError, UsageError

_dtype = np.float32
_faults = set()
_seq = itertools.count()


class _Ctx(threading.local):
    """Per-thread recording context, so frozen models can serve concurrent
    read-only inference without sharing scope or grad state."""

    def __init__(self):
        self.grad_enabled = True
        self.scope = []


_ctx = _Ctx()


def set_precision(bits):
    """Set the global engine precision to 32 or 64 bits.

    Affects tensors created afterwards; existing tensors keep their dtype.
    """
    global _dtype
    if bits == 32:
        _dtype = np.float32
    elif bits == 64:
        _dtype = np.float64
    else:
        raise ConfigurationError(f"precision must be 32 or 64, got {bits!r}")


def precision():
    return 64 if _dtype == np.float64 else 32


def dtype():
    return _dtype


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    prev = _ctx.grad_enabled
    _ctx.grad_enabled = False
    try:
        yield
    finally:
        _ctx.grad_enabled = prev


@contextlib.contextmanager
def op_scope(label):
    """Prefix op tags created inside the block, e.g. 'stage2.unit03.path1'."""
    _ctx.scope.append(label)
    try:
        yield
    finally:
        _ctx.scope.pop()


def enable_test_fault(name):
    """Deliberately corrupt an op's backward pass. Test hook only.

    Known faults: 'max_backward' delivers the full upstream gradient to every
    pathway of elementwise_max_k, breaking routing conservation.
    """
    _faults.add(name)


def clear_test_faults():
    _faults.clear()


class Tensor:
    """N-dimensional dense array, optionally a node in the autodiff graph.

    ``data`` and ``grad`` are plain numpy arrays of identical shape. ``grad``
    stays None until backward accumulates into it, and backward keeps it
    only on leaves.
    """

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = ()
        self._backward = None
        self._done = False
        self._seq = next(_seq)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _result(data, op, parents):
    """Wrap op output; record parents only when a gradient path exists."""
    if _ctx.scope:
        op = "/".join(_ctx.scope) + "/" + op
    rec = _ctx.grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=rec, op=op)
    if rec:
        out._parents = tuple(parents)
    return out


def _acc(t, g, own):
    """Accumulate gradient g into t. ``own`` means g is a fresh array we may
    keep; otherwise it may alias upstream storage and must be copied first."""
    if t.grad is None:
        t.grad = g if own else g.copy()
    else:
        t.grad += g


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Every requires_grad tensor reachable from ``loss`` receives dLoss/dTensor
    in ``.grad``. Each op node's closure, parent links and gradient are
    dropped right after the node is swept, which frees what the closure kept
    (per-channel vectors only) and the upstream gradients during the sweep;
    only leaves keep ``.grad``. Calling backward a second time on the same
    loss raises UsageError.
    """
    if loss.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise UsageError("backward was already called on this loss; rebuild the graph")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss._done = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward()
            node.grad = None  # an op node's gradient is spent; leaves keep theirs
        node._backward = None
        node._parents = ()


def first_nonfinite_op(root):
    """Name the earliest-created op whose output is non-finite while all of
    its inputs are finite. Returns None if everything is finite."""
    topo = []
    visited = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        topo.append(node)
        stack.extend(node._parents)

    bad = None
    for node in topo:
        if np.isfinite(node.data).all():
            continue
        if all(np.isfinite(p.data).all() for p in node._parents):
            if bad is None or node._seq < bad._seq:
                bad = node
    return bad.op if bad is not None else None


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b):
    """Elementwise a + b; shapes must match exactly."""
    if a.shape != b.shape:
        raise ConfigurationError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = _result(a.data + b.data, "add", (a, b))
    if out.requires_grad:
        def _bwd():
            # out.grad is dead once this node's backward ran, so one parent
            # may take the buffer itself; any further parent gets a copy
            g = out.grad
            handed_over = False
            for t in (a, b):
                if not t.requires_grad:
                    continue
                if t.grad is None:
                    t.grad = g.copy() if handed_over else g
                    handed_over = True
                else:
                    t.grad += g
        out._backward = _bwd
    return out


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = float(c)
    out = _result(a.data * c, "scale", (a,))
    if out.requires_grad:
        def _bwd():
            if a.requires_grad:
                _acc(a, out.grad * c, own=True)
        out._backward = _bwd
    return out


def sum_all(a):
    """Sum all elements to a scalar tensor."""
    out = _result(a.data.sum(), "sum_all", (a,))
    if out.requires_grad:
        def _bwd():
            if a.requires_grad:
                _acc(a, np.broadcast_to(out.grad, a.shape), own=False)
        out._backward = _bwd
    return out


def relu(a):
    out = _result(np.maximum(a.data, 0), "relu", (a,))
    if out.requires_grad:
        def _bwd():
            if a.requires_grad:
                # out > 0 exactly where a > 0; subgradient 0 at the kink
                _acc(a, out.grad * (out.data > 0), own=True)
        out._backward = _bwd
    return out


MAX_K = 128  # winners are int8, so input index 127 is the last one they hold


def elementwise_max_k(inputs, capture_routing=False):
    """Elementwise maximum over K same-shape tensors.

    Returns (output, winners) where winners holds the winning input index per
    element (int8) when capture_routing is set, else None. Ties break to the
    lowest index, forward and backward alike: a later input wins an element
    only where it is strictly greater. Backward routes each element's
    upstream gradient only to its winner.
    """
    if not 2 <= len(inputs) <= MAX_K:
        raise ConfigurationError(
            f"elementwise_max_k needs 2 to {MAX_K} inputs (winners are int8), got {len(inputs)}")
    shape = inputs[0].shape
    for t in inputs[1:]:
        if t.shape != shape:
            raise ConfigurationError(f"elementwise_max_k: shape mismatch {shape} vs {t.shape}")

    out_data, winners = inputs[0].data, None
    for k, t in enumerate(inputs[1:], start=1):
        wins = (t.data > out_data).view(np.int8)
        # k exceeds every earlier index, so max keeps the latest strict winner
        winners = wins if winners is None else np.maximum(winners, wins * np.int8(k))
        out_data = np.maximum(out_data, t.data)
    out = _result(out_data, "max_k", tuple(inputs))
    if out.requires_grad:
        def _bwd():
            faulty = "max_backward" in _faults
            for k, t in enumerate(inputs):
                if t.requires_grad:
                    _acc(t, out.grad if faulty else out.grad * (winners == k), own=not faulty)
        out._backward = _bwd
    return out, (winners if capture_routing else None)


# ---------------------------------------------------------------------------
# convolution and pooling


def _taps(kh, kw, stride, padding, ho, wo, h, w):
    """For each kernel tap (u, v), the output rows and columns whose input
    lies inside the unpadded h x w input, and the input rows and columns they
    read: (u, v, out_rows, out_cols, in_rows, in_cols) slices."""
    def axis(offset, size_out, size_in):
        lo = max(0, -(offset // stride))
        hi = min(size_out, (size_in - 1 - offset) // stride + 1)
        start = offset + stride * lo
        return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)

    rows = [axis(u - padding, ho, h) for u in range(kh)]
    cols = [axis(v - padding, wo, w) for v in range(kw)]
    return [(u, v, ro, co, ri, ci)
            for u, (ro, ri) in enumerate(rows) for v, (co, ci) in enumerate(cols)]


def _im2col(data, kh, kw, stride, padding, ho, wo):
    """Patch tensor (N, C*kh*kw, Ho*Wo) in native NCHW order.

    A 1x1 kernel at stride 1 without padding is a free reshape; otherwise each
    of the kh*kw taps copies its in-bounds slice of ``data`` into zeroed
    patches, so no padded copy of the input is made.
    """
    n, c, h, w = data.shape
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        return data.reshape(n, c, h * w)
    cols = (np.zeros if padding else np.empty)((n, c, kh, kw, ho, wo), dtype=data.dtype)
    for u, v, ro, co, ri, ci in _taps(kh, kw, stride, padding, ho, wo, h, w):
        cols[:, :, u, v, ro, co] = data[:, :, ri, ci]
    return cols.reshape(n, c * kh * kw, ho * wo)


def _col2im(gcols, shape, kh, kw, stride, padding, ho, wo):
    """Scatter-add patch gradients (N, C*kh*kw, Ho*Wo) back onto the input.

    Each input element sums its taps in (u, v) order starting from zero;
    taps that fall in the padding are skipped, as they touch no input.
    """
    n, c, h, w = shape
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        return gcols.reshape(shape)
    g6 = gcols.reshape(n, c, kh, kw, ho, wo)
    gx = np.zeros(shape, dtype=gcols.dtype)
    for u, v, ro, co, ri, ci in _taps(kh, kw, stride, padding, ho, wo, h, w):
        gx[:, :, ri, ci] += g6[:, :, u, v, ro, co]
    return gx


def conv2d(x, w, stride=1, padding=0):
    """2-D cross-correlation, no bias (batch norm follows every conv here).

    x is NCHW, w is OIHW. Output spatial size floor((H + 2p - kh)/s) + 1.
    Differentiable in both x and w. The patch tensor of the forward GEMM is
    dropped when the forward pass returns; backward rebuilds it from x for
    the weight gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ConfigurationError(f"conv2d expects 4-d input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ConfigurationError(
            f"conv2d: input channels {x.shape} do not match weight {w.shape}")
    if stride not in (1, 2):
        raise ConfigurationError(f"conv2d: stride must be 1 or 2, got {stride}")
    if padding not in (0, 1):
        raise ConfigurationError(f"conv2d: padding must be 0 or 1, got {padding}")

    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ConfigurationError(f"conv2d: kernel {w.shape} does not fit input {x.shape}")

    w2 = w.data.reshape(o, -1)
    patches = _im2col(x.data, kh, kw, stride, padding, ho, wo)
    out = _result(np.matmul(w2, patches).reshape(n, o, ho, wo), "conv2d", (x, w))

    if out.requires_grad:
        def _bwd():
            g3 = out.grad.reshape(n, o, ho * wo)
            if w.requires_grad:
                cols = _im2col(x.data, kh, kw, stride, padding, ho, wo)
                gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
                del cols  # free the rebuilt patches before gx allocates its own
                _acc(w, gw.reshape(w.shape), own=True)
            if x.requires_grad:
                gcols = np.matmul(w2.T, g3)
                _acc(x, _col2im(gcols, x.shape, kh, kw, stride, padding, ho, wo), own=True)
        out._backward = _bwd
    return out


def avgpool2d(x, window, stride):
    """Average pooling with a square window, no padding."""
    if x.data.ndim != 4:
        raise ConfigurationError(f"avgpool2d expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    if ho < 1 or wo < 1:
        raise ConfigurationError(f"avgpool2d: window {window} does not fit input {x.shape}")

    def tap(u, v):
        return x.data[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]

    # sum each window row, then the rows: the order reshape(...).mean uses
    rows = [sum((tap(u, v) for v in range(1, window)), tap(u, 0)) for u in range(window)]
    out = _result(sum(rows[1:], rows[0]) / (window * window), "avgpool2d", (x,))
    if out.requires_grad:
        def _bwd():
            g = out.grad / (window * window)
            gx = np.zeros_like(x.data)
            for u in range(window):
                for v in range(window):
                    gx[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += g
            _acc(x, gx, own=True)
        out._backward = _bwd
    return out


def global_avgpool(x):
    """Mean over all spatial positions, NCHW -> (N, C)."""
    if x.data.ndim != 4:
        raise ConfigurationError(f"global_avgpool expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    out = _result(x.data.mean(axis=(2, 3)), "global_avgpool", (x,))
    if out.requires_grad:
        def _bwd():
            _acc(x, np.broadcast_to(out.grad[:, :, None, None] / (h * w), x.shape), own=False)
        out._backward = _bwd
    return out


def concat_channels(inputs):
    """Concatenate along the channel axis; inputs are all NCHW or all (N, C)."""
    if not inputs:
        raise ConfigurationError("concat_channels: empty input list")
    ndim = inputs[0].data.ndim
    if ndim not in (2, 4):
        raise ConfigurationError(f"concat_channels expects 2-d or 4-d tensors, got {inputs[0].shape}")
    ref = inputs[0].shape
    for t in inputs[1:]:
        same = t.data.ndim == ndim and t.shape[0] == ref[0] and t.shape[2:] == ref[2:]
        if not same:
            raise ConfigurationError(f"concat_channels: shape mismatch {ref} vs {t.shape}")

    out = _result(np.concatenate([t.data for t in inputs], axis=1), "concat", tuple(inputs))
    if out.requires_grad:
        bounds = np.cumsum([0] + [t.shape[1] for t in inputs])
        def _bwd():
            for k, t in enumerate(inputs):
                if t.requires_grad:
                    _acc(t, out.grad[:, bounds[k]:bounds[k + 1]], own=False)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# batch norm, dropout, linear, loss


class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    gamma and beta are trainable tensors; the running mean/variance are plain
    buffers updated only in training mode (EMA weight ``momentum`` on the old
    value). Biased variance throughout.
    """

    def __init__(self, channels, eps=1e-5, momentum=0.9):
        if eps <= 0:
            raise ConfigurationError(f"batch norm epsilon must be > 0, got {eps}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"batch norm momentum must be in [0, 1), got {momentum}")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=_dtype)
        self.running_var = np.ones(channels, dtype=_dtype)


def batchnorm2d(x, state, training):
    """Batch normalization over (N, H, W) per channel.

    Training mode normalizes with batch statistics and updates the running
    stats; eval mode uses the running stats. Training requires more than one
    element per channel, otherwise the variance is undefined. Backward keeps
    the mean and 1/sigma it normalized with and rebuilds x-hat from x.
    """
    return _batchnorm(x, state, training, rectify=False)


def bn_relu(x, state, training):
    """relu(batchnorm2d(x, state, training)) as one op, bit for bit.

    The ReLU runs in place on the batch-norm output, so the graph holds no
    batch-norm output; backward masks the upstream gradient with
    ``out > 0``, which is true exactly where the batch-norm output was > 0.
    """
    return _batchnorm(x, state, training, rectify=True)


def _batchnorm(x, state, training, rectify):
    name = "bn_relu" if rectify else "batchnorm2d"
    if x.data.ndim != 4:
        raise ConfigurationError(f"{name} expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if c != state.channels:
        raise ConfigurationError(
            f"{name}: input has {c} channels, state has {state.channels}")
    gamma, beta = state.gamma, state.beta
    m = n * h * w

    if training:
        if m <= 1:
            raise ConfigurationError(
                f"{name}: training mode needs batch*H*W > 1 per channel, variance undefined")
        mu = x.data.mean(axis=(0, 2, 3))
        out_data = x.data - mu[None, :, None, None]  # scaled and shifted in place below
        var = np.einsum("nchw,nchw->c", out_data, out_data) / m
        state.running_mean = state.momentum * state.running_mean + (1 - state.momentum) * mu
        state.running_var = state.momentum * state.running_var + (1 - state.momentum) * var
        inv = 1.0 / np.sqrt(var + state.eps)
        scale = gamma.data * inv
        out_data *= scale[None, :, None, None]
        out_data += beta.data[None, :, None, None]
    else:
        mu = state.running_mean
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        scale = gamma.data * inv
        shift = beta.data - mu * scale
        out_data = x.data * scale[None, :, None, None] + shift[None, :, None, None]
    if rectify:
        np.maximum(out_data, 0, out=out_data)
    out = _result(out_data, name, (x, gamma, beta))

    if out.requires_grad:
        def _bwd():
            g = out.grad
            if rectify:
                # out.grad is this node's own buffer and dead after this sweep
                g *= out.data > 0
            xhat = x.data - mu[None, :, None, None]
            xhat *= inv[None, :, None, None]
            g_xhat = np.einsum("nchw,nchw->c", g, xhat)
            if gamma.requires_grad:
                _acc(gamma, g_xhat, own=True)  # gamma.grad may now alias g_xhat: only read it
            if beta.requires_grad:
                _acc(beta, g.sum(axis=(0, 2, 3)), own=True)
            if x.requires_grad:
                if training:
                    # backprop through the batch statistics
                    mean_g = g.mean(axis=(0, 2, 3))
                    mean_gx = g_xhat / m
                    gx = g - mean_g[None, :, None, None]
                    xhat *= mean_gx[None, :, None, None]  # xhat is ours, consume it
                    gx -= xhat
                    gx *= scale[None, :, None, None]
                else:
                    gx = g * scale[None, :, None, None]
                _acc(x, gx, own=True)
        out._backward = _bwd
    return out


def dropout(x, rate, training, rng=None):
    """Non-inverted dropout.

    Training zeroes each element independently with probability ``rate`` and
    passes survivors through unscaled; eval multiplies every element by
    (1 - rate).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return scale(x, 1.0 - rate)
    if rate == 0.0:
        return scale(x, 1.0)
    if rng is None:
        raise UsageError("dropout in training mode needs an rng")

    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    out = _result(x.data * keep, "dropout", (x,))
    if out.requires_grad:
        def _bwd():
            if x.requires_grad:
                _acc(x, out.grad * keep, own=True)
        out._backward = _bwd
    return out


def linear(x, w, b):
    """Affine map: (N, C) @ (C, F) + (F,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ConfigurationError(
            f"linear expects (N,C) input, (C,F) weight, (F,) bias; got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"linear: shape mismatch input {x.shape}, weight {w.shape}, bias {b.shape}")
    out = _result(x.data @ w.data + b.data, "linear", (x, w, b))
    if out.requires_grad:
        def _bwd():
            g = out.grad
            if x.requires_grad:
                _acc(x, g @ w.data.T, own=True)
            if w.requires_grad:
                _acc(w, x.data.T @ g, own=True)
            if b.requires_grad:
                _acc(b, g.sum(axis=0), own=True)
        out._backward = _bwd
    return out


def softmax_cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label].

    Stabilized by max subtraction. Gradient is (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ConfigurationError(f"softmax_cross_entropy expects (N, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, classes = logits.shape
    if labels.shape != (n,):
        raise ConfigurationError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= classes:
        raise DataError(f"labels must lie in [0, {classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = _result(-logp[np.arange(n), labels].mean(), "softmax_cross_entropy", (logits,))
    if out.requires_grad:
        def _bwd():
            if logits.requires_grad:
                gl = np.exp(logp)
                gl[np.arange(n), labels] -= 1.0
                gl *= out.grad / n
                _acc(logits, gl, own=True)
        out._backward = _bwd
    return out


def check_finite(t, context=""):
    """Raise NumericError if t holds NaN or Inf, naming the producing op."""
    if np.isfinite(t.data).all():
        return
    origin = first_nonfinite_op(t)
    where = f" in op '{origin}'" if origin else ""
    ctx = f" ({context})" if context else ""
    raise NumericError(f"non-finite values first appeared{where}{ctx}")
