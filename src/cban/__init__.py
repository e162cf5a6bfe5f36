"""Bipartite attractor networks with energy-minimizing settling dynamics.

Recurrent stacks of layers with symmetric bidirectional connections settle
partial evidence into complete visible states by descending an energy
function; training unrolls the settling sweeps and injects a loss after
every iteration. The package carries its own float64 tensor type with a
reverse-mode gradient tape, the settling dynamics and energy, the three
training losses with their optimizers, task data (bars, IDX digits,
coherent-noise masks), reconstruction metrics, and a small CLI.
"""

import os as _os

# Best-effort thread cap for the BLAS backing numpy; must run before numpy
# itself is imported to take effect.
_threads = _os.environ.get("CBAN_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .tensor import (  # noqa: E402
    ConvKernel,
    DomainError,
    GradTape,
    Tensor,
    avg_pool2,
    conv2d_half,
    nn_upsample2,
    reverse_kernel,
)
from .dynamics import (  # noqa: E402
    ArchSpec,
    EvidenceConstraint,
    LayerSpec,
    LeakySigmoid,
    NetState,
    SettleReport,
    Tanh,
    WeightBundle,
    activation,
    barrier,
    conv_layer,
    detect_cycle,
    energy,
    fban,
    fc_layer,
    initial_state,
    inverse_activation,
    layer_preactivation,
    norm_1inf,
    settle,
    sweep,
    synchronous_step,
    update_layer,
)
from .training import (  # noqa: E402
    TrainConfig,
    complete,
    init_weights,
    loss_per_item,
    optimizer_step,
    td1_forward,
    train,
    unclamped_visible,
)
from .data import (  # noqa: E402
    BarTask,
    BernoulliMask,
    Example,
    LabelOnly,
    LabelPlus,
    PerlinMask,
    SquarePatches,
    bar_eval_set,
    bernoulli_mask,
    decode_label,
    encode_label,
    gen_bar_evidence,
    gen_bar_patterns,
    load_idx,
    perlin_mask,
    square_patch_mask,
)
from .metrics import (  # noqa: E402
    MetricReport,
    completion_accuracy,
    label_accuracy,
    psnr,
    ssim,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint  # noqa: E402
from .config import RunConfig, load_run_config  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ConvKernel", "DomainError", "GradTape", "Tensor", "avg_pool2",
    "conv2d_half", "nn_upsample2", "reverse_kernel",
    "ArchSpec", "EvidenceConstraint", "LayerSpec", "LeakySigmoid", "NetState",
    "SettleReport", "Tanh", "WeightBundle", "activation", "barrier",
    "conv_layer", "detect_cycle", "energy", "fban", "fc_layer",
    "initial_state", "inverse_activation", "layer_preactivation", "norm_1inf",
    "settle", "sweep", "synchronous_step", "update_layer",
    "TrainConfig", "complete", "init_weights", "loss_per_item", "optimizer_step",
    "td1_forward", "train", "unclamped_visible",
    "BarTask", "BernoulliMask", "Example", "LabelOnly", "LabelPlus",
    "PerlinMask", "SquarePatches", "bar_eval_set", "bernoulli_mask",
    "decode_label", "encode_label", "gen_bar_evidence", "gen_bar_patterns",
    "load_idx", "perlin_mask", "square_patch_mask",
    "MetricReport", "completion_accuracy", "label_accuracy", "psnr", "ssim",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "RunConfig", "load_run_config",
]
