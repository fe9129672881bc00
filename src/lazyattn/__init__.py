"""Lazy-attention toy language model and diagnostics.

A small numpy-backed autodiff engine under a causal transformer whose
attention combines rotary embeddings with per-head learnable distance
biases, normalized by rectified-offset softmax variants that may assign
exactly zero weight. Includes a tiled two-pass attention path, a training
loop, and CLI diagnostics for sink/density analyses.
"""

from .core import (
    ShapeError,
    Tape,
    Tensor,
    add,
    add_row,
    backward,
    cross_entropy,
    embedding,
    exp,
    gelu,
    layernorm,
    matmul,
    mul,
    relu,
    scale,
)
from .positional import (
    BiasTable,
    RopeConfig,
    apply_rope,
)
from .normalizers import (
    NormalizerMode,
    density_and_sink,
    sparsemax,
)
from .attention import (
    AllocationMeter,
    AttentionConfig,
    CaptureBuffer,
    attend_naive,
    attend_two_pass,
    multi_head,
)
from .model import (
    BOS_ID,
    BYTE_VOCAB,
    CheckpointError,
    ModelConfig,
    TransformerLM,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    AdamW,
    ConfigError,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    ingest,
    lr_at,
    mean_nll,
    tokenize_bytes,
    train,
)
from .diagnostics import (
    AttnStats,
    ProbeResult,
    eval_ppl,
    export_bias,
    export_offsets,
    measure_density,
    probe_repeated,
    sink_variance_report,
    translation_invariance,
)

__version__ = "0.1.0"
