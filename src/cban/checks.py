"""Randomized invariant suites: the release gates behind `cban check`.

Each suite runs a batch of randomized instances against a property the
library is supposed to guarantee and reports per-instance failures. The
acceptance tests call these with their full trial counts; the CLI runs the
same defaults. The gradients suite is the finite-difference check of the
TD(1) gradient, which a GradTape records and takes as one explicit
reverse sweep; no other op of the package is differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import GradTape
from .data import Example
from .dynamics import (
    ArchSpec,
    EvidenceConstraint,
    LeakySigmoid,
    NetState,
    Tanh,
    WeightBundle,
    conv_layer,
    energy,
    fban,
    initial_state,
    norm_1inf,
    settle,
    sweep_order,
    update_layer,
)
from .training import LOSS_KINDS, TrainConfig, init_weights, td1_forward

__all__ = [
    "CheckResult",
    "check_gradients",
    "check_layerwise_descent",
    "check_settle_convergence",
    "check_leaky_bound",
    "SUITES",
    "run_suite",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    trials: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def lines(self):
        status = "pass" if self.passed else "FAIL"
        out = [f"[{status}] {self.name}: {self.trials} trials"
               + (f", stats {self.stats}" if self.stats else "")]
        out += [f"    failure: {msg}" for msg in self.failures[:10]]
        if len(self.failures) > 10:
            out.append(f"    ... and {len(self.failures) - 10} more")
        return out


def _random_mask(rng, units):
    """About half the units observed, never none and never all."""
    mask = rng.random(units) < 0.5
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[-1] = False
    return mask


def _random_examples(rng, n, units):
    out = []
    for _ in range(n):
        target = rng.uniform(-0.9, 0.9, size=units)
        out.append(Example(target=target, mask=_random_mask(rng, units)))
    return out


def _fd_gradient(f, x, step):
    g = np.zeros_like(x)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


_CONV_PER_LOSS = 2
# extra pooled-conv trials per loss kind, after the others so that their
# draws stay as they were: the leaky sigmoid's branches, and external-bias
# evidence, whose zero visible start leaves layer 1's first update its bias
_CONV_VARIANTS = (("leaky", {"activation": LeakySigmoid(0.5)}),
                  ("external-bias", {"evidence": "external_bias"}))


def _pooled_conv_arch():
    # 2 -> 3 -> 1 channels with pooling into the top layer: the up and down
    # maps of the two pairs take both branches of the convolution kernels
    return ArchSpec(layers=(conv_layer(2, 4, 4, visible=True), conv_layer(3, 4, 4),
                            conv_layer(1, 2, 2, pool_before=True)),
                    kernel_sizes=(3, 3))


def _gradient_errors(rng, arch, w, loss_kind, max_sweeps, step):
    """Relative error of each parameter block's gradient of the TD(1) loss,
    td1_forward's reverse sweep taken through a GradTape, against central
    differences, on random examples."""
    examples = _random_examples(rng, int(rng.integers(1, 3)), arch.layers[0].size)
    sweeps = int(rng.integers(1, max_sweeps + 1))
    cfg = TrainConfig(epochs=1, loss=loss_kind, theta=1e-12, max_iters=sweeps,
                      batch_size=len(examples), seed=0)
    with GradTape() as tape:
        loss, _ = td1_forward(examples, w, arch, cfg)
    (grad,) = tape.gradient(loss, w.params())
    errors = []
    # each block of w.flat is perturbed in place by the fd helper
    for g, x in zip(w.blocks(grad), w.blocks(w.flat.data)):
        fd = _fd_gradient(lambda: td1_forward(examples, w, arch, cfg)[0].item(), x, step)
        scale = max(np.max(np.abs(g)), np.max(np.abs(fd)), 1e-12)
        errors.append(np.max(np.abs(g - fd)) / scale)
    return errors


def _gradient_trials(rng, per_loss):
    """Yield (label, loss kind, arch, weights) per trial of check_gradients,
    drawing each net from rng just before its trial runs."""
    for loss_kind in LOSS_KINDS:
        for trial in range(per_loss + _CONV_PER_LOSS):
            if trial < per_loss:
                arch = fban(int(rng.integers(2, 5)), [int(rng.integers(2, 4))])
                w = init_weights(arch, seed=int(rng.integers(1 << 30)))
            else:
                arch = _pooled_conv_arch()
                w = init_weights(arch, seed=int(rng.integers(1 << 30)), conv_std=0.3)
            yield f"{loss_kind} trial {trial}", loss_kind, arch, w
    for loss_kind in LOSS_KINDS:
        for name, changes in _CONV_VARIANTS:
            arch = replace(_pooled_conv_arch(), **changes)
            w = init_weights(arch, seed=int(rng.integers(1 << 30)), conv_std=0.3)
            yield f"{loss_kind} {name} trial", loss_kind, arch, w


def check_gradients(seed=0, per_loss=20, max_sweeps=5, step=1e-5, tol=1e-4):
    """The TD(1) reverse sweep, the package's only gradient, versus central
    finite differences, per loss kind.

    Each loss kind gets per_loss trials on random one-hidden-layer fc nets
    and _CONV_PER_LOSS trials on a tiny pooled conv net. Each then gets one
    more pooled conv trial per _CONV_VARIANTS entry, so that every branch
    of a layer update's backward (each activation kind's slope and the
    clamp of training._td1_backward) is differentiated.
    """
    rng = np.random.default_rng(seed)
    failures = []
    trials = 0
    for label, loss_kind, arch, w in _gradient_trials(rng, per_loss):
        trials += 1
        errors = _gradient_errors(rng, arch, w, loss_kind, max_sweeps, step)
        failures += [f"{label} block {i}: rel err {err:.2e}"
                     for i, err in enumerate(errors) if err > tol]
    return CheckResult(name="gradients", passed=not failures, trials=trials,
                       failures=failures)


def _random_fban(rng, max_units=64, max_hidden_layers=2, scale=0.1, activation=None):
    depth = int(rng.integers(1, max_hidden_layers + 1))
    sizes = [int(s) for s in rng.integers(2, max_units + 1, size=depth + 1)]
    arch = fban(sizes[0], sizes[1:], activation_kind=activation or Tanh())
    forward = [rng.normal(scale=scale, size=(lo, hi)) for lo, hi in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(scale=0.05, size=(n,)) for n in sizes]
    return arch, WeightBundle.from_blocks(forward + biases), sizes


# pooled-conv trials of the descent check, one per kernel scale
_CONV_DESCENT_STDS = (0.08, 0.3, 1.0)
# external-bias fc trials of the descent check, one per weight scale
_EXTERNAL_BIAS_SCALES = (0.1, 0.5, 1.0, 2.0)


def check_layerwise_descent(seed=0, trials=200, max_units=64, slack=1e-9,
                            theta=1e-3, max_iters=500, descent_sweeps=5):
    """Symmetric tanh nets: every layer update non-increasing, settle converges.

    Runs `trials` random fc nets, then a tiny pooled conv net per kernel
    scale, then a random fc net settling external-bias evidence per weight
    scale.
    """
    rng = np.random.default_rng(seed)
    failures = []
    t_stars = []
    n_conv = len(_CONV_DESCENT_STDS)
    n_trials = trials + n_conv + len(_EXTERNAL_BIAS_SCALES)
    for trial in range(n_trials):
        evidence = None
        if trial < trials:
            arch, w, _ = _random_fban(rng, max_units=max_units)
        elif trial < trials + n_conv:
            arch = _pooled_conv_arch()
            w = init_weights(arch, seed=int(rng.integers(1 << 30)),
                             conv_std=_CONV_DESCENT_STDS[trial - trials])
        else:
            scale = _EXTERNAL_BIAS_SCALES[trial - trials - n_conv]
            arch, w, sizes = _random_fban(rng, max_units=max_units, scale=scale)
            arch = replace(arch, evidence="external_bias")
            mask = _random_mask(rng, sizes[0])
            evidence = EvidenceConstraint(
                mask=mask, values=np.where(mask, rng.uniform(-0.9, 0.9, sizes[0]), 0.0))
        state = NetState([rng.uniform(-0.9, 0.9, size=spec.shape) for spec in arch.layers],
                         evidence=evidence)
        e = energy(state, w, arch)
        for it in range(descent_sweeps):
            for l in sweep_order(arch.n_layers):
                state = update_layer(state, w, arch, l)
                e2 = energy(state, w, arch)
                if e2 > e + slack:
                    failures.append(
                        f"trial {trial}: energy rose {e2 - e:.2e} at layer {l}")
                e = e2
        state, report = settle(state, w, arch, theta=theta, max_iters=max_iters,
                               record_energy=True)
        t_stars.append(report.t_star)
        if not report.converged:
            failures.append(f"trial {trial}: settle did not reach a fixed point")
        if np.any(np.diff(report.energy_trace) > slack):
            failures.append(f"trial {trial}: sweep-level energy rose during settle")
    return CheckResult(name="layerwise-energy-descent", passed=not failures,
                       trials=n_trials, failures=failures,
                       stats={"mean_t_star": float(np.mean(t_stars))})


def check_settle_convergence(seed=0, trials=50, theta=1e-3, max_iters=500):
    """Random symmetric nets with evidence clamped settle to fixed points."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        arch, w, sizes = _random_fban(rng, max_units=32)
        mask = _random_mask(rng, sizes[0])
        ev = EvidenceConstraint(mask=mask,
                                values=np.where(mask, rng.uniform(-0.9, 0.9, sizes[0]), 0.0))
        _, report = settle(initial_state(arch, ev), w, arch, theta=theta,
                           max_iters=max_iters, record_energy=False)
        if not report.converged:
            failures.append(f"trial {trial}: no fixed point under clamping")
    return CheckResult(name="clamped-settle-convergence", passed=not failures,
                       trials=trials, failures=failures)


def check_leaky_bound(seed=0, trials=200, alpha=0.2, product=0.9, theta=1e-6,
                      max_iters=500, expect_convergent=True):
    """Contraction bound: alpha * norm < 1 forces a fixed point.

    The iteration cap leaves room for the worst admissible contraction
    rate (at product q the error shrinks like q^t, so theta=1e-6 needs
    roughly 131 sweeps at q=0.9). With expect_convergent=False the suite
    instead demands that at least one run fails to converge or diverges,
    which is what happens once the bound is far exceeded.
    """
    rng = np.random.default_rng(seed)
    failures = []
    non_convergent = 0
    for trial in range(trials):
        arch, w, sizes = _random_fban(rng, max_units=24, scale=1.0,
                                      activation=LeakySigmoid(alpha))
        target = product / alpha
        current = norm_1inf(w)
        w = WeightBundle.from_blocks([t * (target / current) for t in w.forward] + w.biases)
        state = NetState([rng.uniform(-1.0, 1.0, size=(n,)) for n in sizes])
        try:
            _, report = settle(state, w, arch, theta=theta, max_iters=max_iters,
                               record_energy=False)
            bad = not report.converged
        except ValueError:
            bad = True  # divergence to non-finite values
        if bad:
            non_convergent += 1
            if expect_convergent:
                failures.append(f"trial {trial}: no fixed point at product {product}")
    if not expect_convergent and non_convergent == 0:
        failures.append(f"no non-convergent run observed at product {product}")
    name = f"leaky-bound(product={product})"
    return CheckResult(name=name, passed=not failures, trials=trials,
                       failures=failures, stats={"non_convergent": non_convergent})


def _bound_suite(seed):
    return [check_leaky_bound(seed=seed, product=0.9, expect_convergent=True),
            check_leaky_bound(seed=seed + 1, product=5.0, max_iters=100,
                              expect_convergent=False)]


SUITES = {
    "gradients": lambda seed: [check_gradients(seed=seed)],
    "energy": lambda seed: [check_layerwise_descent(seed=seed)],
    "convergence": lambda seed: [check_settle_convergence(seed=seed)],
    "bound": _bound_suite,
}


def run_suite(name, seed=0):
    """Run one named suite; returns the list of CheckResults."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
