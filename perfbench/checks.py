"""Correctness checks of the program's outputs, each against a computation
made apart from the program or a property the method must have.

Every check returns a list of failure messages; an empty list is a pass.
"""

from dataclasses import replace

import numpy as np

# float32 forward passes drift from the float64 reference by accumulated
# rounding, measured at under 1e-6 of the logit scale at depth 164
LOGIT_RTOL = 1e-4
# pathway sums closer than this share of the unit's largest sum count as ties
# that float32 rounding may break either way; the winners seen to differ from
# the reference were all within about 1e-8
TIE_RTOL = 1e-5
# each ReLU or max input within a step of its kink bends the difference
# quotient; at depth 164 steps of 1e-6 and up cross enough of them for errors
# above 1e-3, while 1e-8 reaches float64 rounding
FD_STEP = 1e-7
FD_RTOL = 1e-3
FD_ATOL = 1e-6


def eval_logits(cp, model, x, ref_logits):
    """Program eval logits against the plain-numpy reference."""
    with cp.engine.no_grad():
        got = model.forward(cp.engine.Tensor(x), training=False).data.astype(np.float64)
    err = np.abs(got - ref_logits).max()
    tol = LOGIT_RTOL * max(1.0, np.abs(ref_logits).max())
    return [] if err <= tol else [f"eval logits differ from the reference by {err:.3g} > {tol:.3g}"]


def checkpoint_round_trip(cp, model, loaded, x):
    """A saved and reloaded model gives the same logits bit for bit."""
    with cp.engine.no_grad():
        a = model.forward(cp.engine.Tensor(x), training=False).data
        b = loaded.forward(cp.engine.Tensor(x), training=False).data
    return [] if np.array_equal(a, b) else ["reloaded checkpoint changes the logits"]


def training_loss(log):
    """Loss finite every epoch and lower in the last epoch than the first."""
    losses = [row[2] for row in log]
    if not np.isfinite(losses).all():
        return [f"non-finite training loss: {losses}"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"training loss did not fall: first {losses[0]:.4f}, last {losses[-1]:.4f}"]
    return []


def trace_counts(profile, labels, stage):
    """Wins sum to the element count, which is images x H x W per category."""
    side = 32 >> (stage - 1)
    per_cat = np.bincount(labels, minlength=profile.elements.shape[2]) * side * side
    fails = []
    if not np.array_equal(profile.wins.sum(axis=3), profile.elements):
        fails.append(f"stage {stage}: wins over pathways do not sum to the element count")
    if not (profile.elements == per_cat[None, None, :]).all():
        fails.append(f"stage {stage}: element counts are not images x {side} x {side}")
    return fails


def trace_recount(profile, labels, routing, stage):
    """Wins against a recount of the reference pass's winners.

    Per (unit, map, category, pathway): the confident reference wins C and
    the near-tie elements T bound the program's count, C <= wins <= C + T.
    """
    onehot_cat = np.eye(profile.elements.shape[2], dtype=np.int64)[labels]  # N x categories
    fails = []
    for u, (winners, margin) in enumerate(routing[stage - 1]):
        tie = margin <= TIE_RTOL
        ties = np.einsum("nchw,nk->ck", tie.astype(np.int64), onehot_cat)
        for k in range(profile.k):
            conf = ((winners == k) & ~tie).astype(np.int64)
            c_k = np.einsum("nchw,nk->ck", conf, onehot_cat)
            w_k = profile.wins[u, :, :, k]
            if not ((c_k <= w_k) & (w_k <= c_k + ties)).all():
                fails.append(f"stage {stage} unit {u} pathway {k}: wins differ from the "
                             "reference recount beyond its near-ties")
    return fails


def gradients(cp, config, images, labels, normalizer, seed):
    """Float64 finite differences at sampled coordinates against backward.

    Builds a fresh He-initialized model of the workload's shape with dropout
    off; batch norm runs in training mode as in a real step. A ReLU or max
    kink within one step of the point bends one side only, and backward
    then returns that side's slope, so a coordinate passes when the central,
    the forward or the backward difference agrees.
    """
    eng = cp.engine
    prev = eng.precision()
    eng.set_precision(64)
    try:
        rng = np.random.default_rng(seed)
        model = cp.models.build(replace(config, dropout_rate=0.0))
        cp.training.he_init(model, rng)
        x = eng.Tensor(normalizer.normalize(images))

        def loss_at(p, i, value):
            p.data.flat[i] = value
            with eng.no_grad():
                return float(eng.softmax_cross_entropy(
                    model.forward(x, training=True), labels).data)

        model.zero_grad()
        eng.backward(eng.softmax_cross_entropy(model.forward(x, training=True), labels))
        params = model.parameters()
        fails = []
        for name in _sampled_parameters(params, config):
            p = params[name]
            i = int(rng.integers(p.data.size))
            orig = p.data.flat[i]
            an = float(p.grad.flat[i])
            up, down = loss_at(p, i, orig + FD_STEP), loss_at(p, i, orig - FD_STEP)
            central = (up - down) / (2 * FD_STEP)
            if not _agree(central, an):
                mid = loss_at(p, i, orig)
                if not (_agree((up - mid) / FD_STEP, an) or _agree((mid - down) / FD_STEP, an)):
                    fails.append(f"gradient of {name}[{i}]: backward {an:.6g}, "
                                 f"central difference {central:.6g}")
            p.data.flat[i] = orig
        return fails, model
    finally:
        eng.set_precision(prev)


def _agree(fd, an):
    return abs(fd - an) <= FD_ATOL + FD_RTOL * max(abs(fd), abs(an))


def _sampled_parameters(params, config):
    """Head and stem, plus every pathway's convs and BN gamma and the
    projection in the first unit of each stage and the last unit of stage 3."""
    names = ["init_conv.w", "final_bn.gamma", "classifier.w", "classifier.b"]
    last = config.units_per_stage - 1
    for uid in ("stage1.unit00", "stage2.unit00", "stage3.unit00", f"stage3.unit{last:02d}"):
        for k in range(config.k):
            names += [f"{uid}.path{k}.{leaf}" for leaf in ("bn1.gamma", "conv1.w", "conv3.w")]
        names.append(f"{uid}.proj.w")
    return [n for n in dict.fromkeys(names) if n in params]


def sgd_step(cp, model, plan, lr, seed):
    """One SGD.step against v <- mu v + g + wd w (conv/linear weights only),
    w <- w - lr v, recomputed here from copies. Needs grads in ``model``."""
    rng = np.random.default_rng(seed)
    opt = cp.training.SGD(model, plan)
    for v in opt.velocity.values():
        v[...] = rng.standard_normal(v.shape)
    params = model.parameters()
    before = {n: (p.data.copy(), p.grad.copy(), opt.velocity[n].copy())
              for n, p in params.items()}
    opt.step(lr)
    fails = []
    for n, (w, g, v) in before.items():
        wd = plan.weight_decay if n.endswith(".w") else 0.0
        v = plan.momentum * v + g + wd * w
        w = w - lr * v
        if not (np.allclose(opt.velocity[n], v, rtol=1e-12, atol=1e-15)
                and np.allclose(params[n].data, w, rtol=1e-12, atol=1e-15)):
            fails.append(f"SGD step on {n} differs from the recomputed update")
    return fails
