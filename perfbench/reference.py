"""Plain-numpy eval-mode forward pass of a plain bottleneck CoPaNet.

Shares no code with the program: convolutions run over sliding windows with
``np.tensordot``, batch norm uses the running statistics, and each unit takes
an explicit max over its K pathway sums ``shortcut + h_k``. With K=1 this is
a pre-activation ResNet. Everything is computed in float64 from the model's
parameters and BN buffers.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv(x, w, stride=1, pad=0):
    """Cross-correlation of NCHW x with OIHW w."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, w.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    return np.tensordot(win, w, axes=((1, 4, 5), (1, 2, 3))).transpose(0, 3, 1, 2)


def batchnorm_eval(x, state):
    mean = state.running_mean.astype(np.float64)[None, :, None, None]
    var = state.running_var.astype(np.float64)[None, :, None, None]
    gamma = state.gamma.data.astype(np.float64)[None, :, None, None]
    beta = state.beta.data.astype(np.float64)[None, :, None, None]
    return (x - mean) / np.sqrt(var + state.eps) * gamma + beta


def relu(x):
    return np.maximum(x, 0.0)


def avgpool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def forward(model, x):
    """Eval-mode logits for NCHW images ``x`` (already normalized).

    Returns (logits, routing) where routing[s][u] = (winners, margin) for unit
    u of stage s+1: the lowest index of the largest pathway sum per element
    (int8) and the gap between the two largest sums as a share of the unit's
    largest absolute sum (inf for K=1).
    """
    cfg = model.config
    if cfg.variant != "plain" or cfg.kind != "bottleneck":
        raise ValueError("the reference covers plain bottleneck models only")
    p = {name: t.data.astype(np.float64) for name, t in model.parameters().items()}
    bn = model.bn_states()

    h = conv(np.asarray(x, dtype=np.float64), p["init_conv.w"], pad=1)
    routing = []
    for s in range(3):
        stage = []
        for u in range(cfg.units_per_stage):
            uid = f"stage{s + 1}.unit{u:02d}"
            proj = p.get(f"{uid}.proj.w")
            shortcut = h if proj is None else conv(h, proj)
            sums = []
            for k in range(cfg.k):
                pre = f"{uid}.path{k}"
                t = conv(relu(batchnorm_eval(h, bn[f"{pre}.bn1"])), p[f"{pre}.conv1.w"])
                t = conv(relu(batchnorm_eval(t, bn[f"{pre}.bn2"])), p[f"{pre}.conv2.w"], pad=1)
                sums.append(shortcut + conv(t, p[f"{pre}.conv3.w"]))
            sums = np.stack(sums)
            winners = sums.argmax(axis=0).astype(np.int8)  # first index on ties
            if cfg.k > 1:
                top2 = np.sort(sums, axis=0)[-2:]
                margin = (top2[1] - top2[0]) / max(1.0, np.abs(sums).max())
            else:
                margin = np.full(sums.shape[1:], np.inf)
            stage.append((winners, margin))
            h = sums.max(axis=0)
        routing.append(stage)
        if s < 2:
            h = avgpool2(h) * (1.0 - cfg.dropout_rate)  # eval-mode dropout scales
    h = relu(batchnorm_eval(h, bn["final_bn"]))
    logits = h.mean(axis=(2, 3)) @ p["classifier.w"] + p["classifier.b"]
    return logits, routing
