"""Toy pre-LN autoregressive byte-level language model.

Each block is x + MHA(LN(x)) followed by x + FFN(LN(x)); the FFN is two
linear maps around a tanh-form GELU with a 4x hidden width. Tokens are raw
bytes plus a BOS marker (vocab 257), with one extra reserved id when the
fixed-mask training probe is enabled. All configurations allocate the
distance-bias and offset parameters even when a mode ignores them, so
models built from the same seed share every random draw and differ only in
how the attention uses the parameters.

The forward pass threads two optional observers down to the attention:
``capture`` collects each layer's weights and ``meter`` the two-pass path's
auxiliary bytes. Analyses that read other intermediates, such as block
inputs, run ``block_forward`` layer by layer themselves.

Checkpoints are a single file: magic, a little-endian u32 header length, a
human-readable JSON manifest (config, step, metrics, parameter layout,
provenance notes), then the flat little-endian parameter arrays in
declared order. Same-precision round trips are bit-exact.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .attention import (
    AllocationMeter,
    AttentionConfig,
    AttentionLayerParams,
    CaptureBuffer,
    multi_head,
)
from .core import Tensor
from .normalizers import NormalizerMode
from .positional import BiasTable, RopeConfig

BYTE_VOCAB = 256
BOS_ID = 256
MASK_ID = 257

_CKPT_MAGIC = b"LAZYATTN"
_CKPT_FORMAT = 1

FFN_ACTIVATION = "tanh_gelu"
INIT_SCHEME = "normal(std=0.02); output projections scaled by 1/sqrt(2L)"


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed, truncated, or inconsistent."""


def check_finite(cfg, error=ValueError) -> None:
    """Raise ``error`` naming the first float field of dataclass ``cfg`` that is NaN or infinite."""
    for name, f in cfg.__dataclass_fields__.items():
        if f.type == "float" and not math.isfinite(getattr(cfg, name)):
            raise error(f"{name} must be finite")


@dataclass
class ModelConfig:
    """Architecture plus attention behavior for one model."""

    n_layers: int = 2
    d_model: int = 128
    n_heads: int = 4
    n_ctx: int = 128
    rope_base: float = 10000.0
    window: int = 512
    positional: str = "rope_bias"
    normalizer: str = "elastic"
    tau_init: float = -1.0
    freeze_tau: bool = False
    freeze_bias: bool = False
    tile: int = 64
    attention_path: str = "naive"
    mask_token: bool = False
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_heads < 1:
            raise ValueError("n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_ctx < 2:
            raise ValueError("n_ctx must be >= 2")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        core.resolve_dtype(self.dtype)
        self.attention()  # the attention and rope configs check the rest
        self.rope()

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def vocab_size(self) -> int:
        # bytes + BOS, plus exactly one reserved id when the mask probe is on
        return BYTE_VOCAB + 1 + (1 if self.mask_token else 0)

    @property
    def effective_window(self) -> int:
        return min(self.window, self.n_ctx)

    def attention(self) -> AttentionConfig:
        return AttentionConfig(
            n_heads=self.n_heads,
            head_dim=self.head_dim,
            positional=self.positional,
            normalizer=NormalizerMode.parse(self.normalizer),
            tile=self.tile,
            path=self.attention_path,
        )

    def rope(self) -> RopeConfig:
        return RopeConfig(head_dim=self.head_dim, base=self.rope_base)


class TransformerLM:
    """Stack of pre-LN attention/FFN blocks over a byte vocabulary."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.attn_cfg = cfg.attention()
        self.rope_cfg = cfg.rope()
        self.window = cfg.effective_window
        d, hidden, v = cfg.d_model, 4 * cfg.d_model, cfg.vocab_size
        rng = np.random.default_rng(cfg.seed)
        out_std = 0.02 / np.sqrt(2.0 * cfg.n_layers)
        dt = cfg.dtype

        def normal(shape, std):
            return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True, dtype=dt)

        def const(shape, value):
            return Tensor(np.full(shape, value), requires_grad=True, dtype=dt)

        self.params: dict[str, Tensor] = {}
        self.bias_table = BiasTable(cfg.n_layers, cfg.n_heads, self.window, dtype=dt)
        self.params["embed"] = normal((v, d), 0.02)
        self.layers: list[dict[str, Tensor]] = []
        for li in range(cfg.n_layers):
            lp = {
                "ln1.gain": const((d,), 1.0),
                "ln1.bias": const((d,), 0.0),
                "attn.wq": normal((d, d), 0.02),
                "attn.wk": normal((d, d), 0.02),
                "attn.wv": normal((d, d), 0.02),
                "attn.wo": normal((d, d), out_std),
                "attn.bias_table": self.bias_table.tables[li],
                "attn.tau": const((cfg.n_heads,), cfg.tau_init),
                "ln2.gain": const((d,), 1.0),
                "ln2.bias": const((d,), 0.0),
                "ffn.w1": normal((d, hidden), 0.02),
                "ffn.b1": const((hidden,), 0.0),
                "ffn.w2": normal((hidden, d), out_std),
                "ffn.b2": const((d,), 0.0),
            }
            if cfg.freeze_tau:
                lp["attn.tau"].requires_grad = False
            if cfg.freeze_bias:
                lp["attn.bias_table"].requires_grad = False
            self.layers.append(lp)
            for name, t in lp.items():
                self.params[f"layer{li}.{name}"] = t
        self.params["final_ln.gain"] = const((d,), 1.0)
        self.params["final_ln.bias"] = const((d,), 0.0)
        self.params["unembed"] = normal((d, v), 0.02)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def replica(self) -> "TransformerLM":
        """A model that shares every parameter array with this one but owns its grad slots.

        A replica's forward and backward compute what this model's would, and
        fill only the replica's ``grad`` slots, so threads can differentiate
        row shards of one batch at once. In-place updates of a parameter's
        ``data`` (the optimizer's) reach every replica; rebinding ``data``
        (as ``load_checkpoint`` does) does not. The configs are shared too.
        """
        twin = copy.copy(self)
        twin.params = {name: Tensor(t.data, requires_grad=t.requires_grad)
                       for name, t in self.params.items()}
        twin.layers = [{name: twin.params[f"layer{li}.{name}"] for name in lp}
                       for li, lp in enumerate(self.layers)]
        twin.bias_table = copy.copy(self.bias_table)
        twin.bias_table.tables = [lp["attn.bias_table"] for lp in twin.layers]
        return twin

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    def taus(self) -> list[np.ndarray]:
        return [lp["attn.tau"].data.copy() for lp in self.layers]

    def _layer_params(self, li: int) -> AttentionLayerParams:
        lp = self.layers[li]
        return AttentionLayerParams(
            wq=lp["attn.wq"], wk=lp["attn.wk"], wv=lp["attn.wv"], wo=lp["attn.wo"],
            bias=lp["attn.bias_table"], tau=lp["attn.tau"],
        )

    def block_forward(self, x: Tensor, li: int, positions: np.ndarray, *, batch: int = 1,
                      capture: CaptureBuffer | None = None,
                      meter: AllocationMeter | None = None) -> Tensor:
        """One residual block: x + MHA(LN(x)), then x + FFN(LN(x))."""
        lp = self.layers[li]
        h = core.layernorm(x, lp["ln1.gain"], lp["ln1.bias"])
        a = multi_head(h, self._layer_params(li), self.attn_cfg, self.rope_cfg, positions,
                       batch=batch, capture=capture, meter=meter)
        x = core.add(x, a)
        h2 = core.layernorm(x, lp["ln2.gain"], lp["ln2.bias"])
        f = core.add_row(core.matmul(h2, lp["ffn.w1"]), lp["ffn.b1"])
        f = core.gelu(f)
        f = core.add_row(core.matmul(f, lp["ffn.w2"]), lp["ffn.b2"])
        return core.add(x, f)

    def lm_forward(self, ids: np.ndarray, *, max_len: int | None = None,
                   capture: CaptureBuffer | None = None,
                   meter: AllocationMeter | None = None) -> Tensor:
        """Causal next-token logits for a (B, n) or (n,) batch of token ids.

        Sequences longer than the training context are rejected unless
        ``max_len`` raises the limit explicitly (extrapolation evals and
        probes do this on purpose).
        """
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise ValueError(f"ids must be (B, n) or (n,), got shape {ids.shape}")
        b, n = ids.shape
        limit = self.cfg.n_ctx if max_len is None else max_len
        if n > limit:
            raise ValueError(f"sequence length {n} exceeds limit {limit}")
        if n < 1:
            raise ValueError("empty sequence")
        positions = np.tile(np.arange(n), b)
        x = core.embedding(self.params["embed"], ids.reshape(-1))
        for li in range(self.cfg.n_layers):
            x = self.block_forward(x, li, positions, batch=b, capture=capture, meter=meter)
        x = core.layernorm(x, self.params["final_ln.gain"], self.params["final_ln.bias"])
        return core.matmul(x, self.params["unembed"])

    def loss(self, ids: np.ndarray, targets: np.ndarray, *, max_len: int | None = None) -> Tensor:
        """Mean next-token cross-entropy over every position in the batch."""
        logits = self.lm_forward(ids, max_len=max_len)
        return core.cross_entropy(logits, np.asarray(targets).reshape(-1))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _manifest(model: TransformerLM, step: int, metrics: dict | None) -> dict:
    return {
        "format": _CKPT_FORMAT,
        "dtype": model.cfg.dtype,
        "step": int(step),
        "metrics": metrics or {},
        "config": asdict(model.cfg),
        "params": [{"name": k, "shape": list(t.shape)} for k, t in model.params.items()],
        "notes": {
            "ffn_activation": FFN_ACTIVATION,
            "init": INIT_SCHEME,
            "final_layernorm": True,
            "rope_base": model.cfg.rope_base,
            "normalizer": model.cfg.normalizer,
            "positional": model.cfg.positional,
            "effective_window": model.window,
        },
    }


def save_checkpoint(model: TransformerLM, path, *, step: int = 0,
                    metrics: dict | None = None) -> None:
    """Atomically write manifest + flat little-endian parameters."""
    header = json.dumps(_manifest(model, step, metrics), indent=1).encode("utf-8")
    wire = "<f4" if model.cfg.dtype == "float32" else "<f8"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for t in model.params.values():
            fh.write(np.ascontiguousarray(t.data).astype(wire, copy=False).tobytes())
    os.replace(tmp, path)


# exact JSON value types accepted per ModelConfig field type (bool is not an int here)
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _check_manifest(manifest, path) -> None:
    """Raise CheckpointError unless the manifest holds what loading reads.

    That is the format tag, a float32/float64 dtype, a config with exactly
    the ``ModelConfig`` keys at their declared types, and a parameter list
    of ``{name, shape}`` entries.
    """
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != _CKPT_FORMAT:
        raise CheckpointError(f"{path}: unsupported format {manifest.get('format')!r}")
    if manifest.get("dtype") not in ("float32", "float64"):
        raise CheckpointError(f"{path}: unsupported dtype {manifest.get('dtype')!r}")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    fields = ModelConfig.__dataclass_fields__
    unknown, missing = sorted(set(cfg) - set(fields)), sorted(set(fields) - set(cfg))
    if unknown or missing:
        raise CheckpointError(f"{path}: config keys unknown {unknown}, missing {missing}")
    for key, f in fields.items():
        if type(cfg[key]) not in _CONFIG_TYPES[f.type]:
            raise CheckpointError(f"{path}: config {key} = {cfg[key]!r} is not a {f.type}")
    params = manifest.get("params")
    if not isinstance(params, list):
        raise CheckpointError(f"{path}: params is not a list")
    for p in params:
        shape = p.get("shape") if isinstance(p, dict) else None
        if not (isinstance(shape, list) and isinstance(p.get("name"), str)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: params entry {p!r} is not {{name, shape}}")


def load_checkpoint(path, *, dtype: str | None = None) -> tuple[TransformerLM, dict]:
    """Rebuild a model from a checkpoint file.

    ``dtype`` converts parameters on load; converting 64->32 is lossy (the
    manifest keeps the original precision). Returns (model, manifest).
    """
    if dtype is not None:
        core.resolve_dtype(dtype)  # a bad argument raises ValueError, not CheckpointError
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_CKPT_MAGIC) + 4 or blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack_from("<I", blob, len(_CKPT_MAGIC))
    start = len(_CKPT_MAGIC) + 4
    if len(blob) < start + hlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[start:start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest: {exc}") from None
    _check_manifest(manifest, path)

    saved_dtype = manifest["dtype"]
    wire = np.dtype("<f4" if saved_dtype == "float32" else "<f8")
    cfg_dict = dict(manifest["config"])
    cfg_dict["dtype"] = dtype or saved_dtype
    try:
        model = TransformerLM(ModelConfig(**cfg_dict))
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid config: {exc}") from None

    names = [p["name"] for p in manifest["params"]]
    shapes = {p["name"]: tuple(p["shape"]) for p in manifest["params"]}
    if names != list(model.params.keys()):
        raise CheckpointError(f"{path}: parameter list does not match the config")
    expected = sum(int(np.prod(shapes[n])) for n in names) * wire.itemsize
    body = blob[start + hlen:]
    if len(body) != expected:
        raise CheckpointError(
            f"{path}: parameter bytes {len(body)} != expected {expected} (corrupt or truncated)")
    off = 0
    for name in names:
        t = model.params[name]
        if shapes[name] != t.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}")
        nbytes = t.data.size * wire.itemsize
        arr = np.frombuffer(body, dtype=wire, count=t.data.size, offset=off).reshape(t.shape)
        t.data = np.ascontiguousarray(arr.astype(t.data.dtype, copy=True))
        off += nbytes
    return model, manifest
