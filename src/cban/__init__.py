"""Bipartite attractor networks with energy-minimizing settling dynamics.

Recurrent stacks of layers with symmetric bidirectional connections settle
partial evidence into complete visible states by descending an energy
function; training unrolls the settling sweeps and injects a loss after
every iteration. Its gradient is one explicit reverse sweep over the
unrolled layer updates (back-propagation through time), the only gradient
the package takes: a GradTape records the TD(1) loss as its one op and
runs that sweep. The layer ops compute forward only, on plain float64
ndarrays: layer states are ndarrays, and a Tensor holds only a net's
weights, one vector, or the recorded loss. The package also carries the
settling dynamics and energy, the three training losses with their
optimizers, task data (bars, IDX digits, coherent-noise masks),
reconstruction metrics, and a small CLI.

CBAN_NUM_THREADS is the largest number of row shards a batched run of a
conv net is split into, each swept on its own thread (see dynamics); by
default it is the number of cores the process may run on. Flat nets and
unbatched states run on one thread.
"""

import os as _os

# Every batch shard runs its own GEMMs, so the BLAS backing numpy gets one
# thread per caller: OpenBLAS, OpenMP and MKL are pinned to one thread
# unless the environment already sets them. This takes effect only when it
# runs before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .tensor import (  # noqa: E402
    ConvKernel,
    DomainError,
    GradTape,
    Tensor,
    avg_pool2,
    avg_pool2_adjoint,
    conv2d_half,
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
    energy,
    fban,
    fc_layer,
    initial_state,
    inverse_activation,
    norm_1inf,
    settle,
    sweep,
    update_layer,
)
from .training import (  # noqa: E402
    TrainConfig,
    complete,
    init_weights,
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
    "avg_pool2_adjoint", "conv2d_half", "reverse_kernel",
    "ArchSpec", "EvidenceConstraint", "LayerSpec", "LeakySigmoid", "NetState",
    "SettleReport", "Tanh", "WeightBundle", "activation", "barrier",
    "conv_layer", "energy", "fban", "fc_layer", "initial_state",
    "inverse_activation", "norm_1inf", "settle", "sweep", "update_layer",
    "TrainConfig", "complete", "init_weights", "optimizer_step",
    "td1_forward", "train", "unclamped_visible",
    "BarTask", "BernoulliMask", "Example", "LabelOnly", "LabelPlus",
    "PerlinMask", "SquarePatches", "bar_eval_set", "bernoulli_mask",
    "decode_label", "encode_label", "gen_bar_evidence", "gen_bar_patterns",
    "load_idx", "perlin_mask", "square_patch_mask",
    "MetricReport", "completion_accuracy", "label_accuracy", "psnr", "ssim",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "RunConfig", "load_run_config",
]
