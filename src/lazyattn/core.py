"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Tensors wrap row-major numpy arrays. The element type is a run switch:
float32 (default) for training speed, float64 for verification against
finite differences. Operations executed while a ``Tape`` is active are
recorded in order; ``backward`` replays the records in reverse, so gradient
accumulation happens in a fixed sequential order and replaying the same
tape twice yields bit-identical gradients.

Tapes are per thread: a ``Tape`` records only the ops its own thread runs
while it is active, so threads can each differentiate their own
computation over shared parameter arrays (the training step's row shards
do this). ``one_blas_thread`` pins numpy's BLAS to one thread while such
threads run; it finds OpenBLAS's thread-count functions through numpy's
core extension, and where numpy links another BLAS it pins nothing.

Broadcasting in the generic elementwise ops (``add``, ``mul``) is limited
to scalar-vs-tensor and exact-shape; anything else raises ``ShapeError``.
Row-vector biases go through the dedicated ``add_row`` op instead.

Backward rules (vjps) return, per input, either a freshly allocated array
or the upstream gradient itself or a view of it; they never return an
array they saved in the forward. ``backward`` relies on that contract: it
takes ownership of a fresh array as the input's first gradient and
accumulates later ones into it in place, copying only the upstream
gradient, its views, and an array handed to two inputs.

Allocator policy: a training step frees a few MB of activations and
gradients when its tape is released and allocates them again in the next
step. By default glibc trims that memory back to the OS and moves its
mmap threshold around, so every step faults its buffers in again as
freshly zeroed pages. Importing this module therefore sets glibc's
``M_MMAP_THRESHOLD`` to 32 MiB (its maximum; fixing it also turns off the
dynamic threshold) and ``M_TRIM_THRESHOLD`` to 1 GiB, so freed heap stays
in the process for reuse. Setting the trim threshold alone would also fix
the mmap threshold, at glibc's 128 KiB default, and map every activation
afresh. It also sets ``M_ARENA_MAX`` to 1, so the threads that run a
step's row shards allocate from one heap: with an arena per thread, each
arena kept its own high-water mark of freed memory that the other
threads could not reuse, which raised peak RSS by about 46 MB on an
n_ctx = 512 run. Where the C library has no ``mallopt`` (not glibc),
nothing is set.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading

import numpy as np

DEFAULT_DTYPE = "float32"
_DTYPES = {"float32": np.float32, "float64": np.float64}

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


_M_TRIM_THRESHOLD = -1  # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_heap() -> bool:
    """Keep freed heap in the process, in one arena (module docstring); True if glibc took all three."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


_FREED_HEAP_KEPT = _keep_freed_heap()


def _find_blas_threads():
    """OpenBLAS's (get, set) thread-count functions as numpy links them, or None.

    numpy's core extension links its BLAS, so the extension's handle finds
    the library's symbols, the way ``_keep_freed_heap`` finds ``mallopt``.
    OpenBLAS builds name them with a prefix and an integer-width suffix.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


_BLAS_THREADS = _find_blas_threads()
BLAS_PINNABLE = _BLAS_THREADS is not None


@contextlib.contextmanager
def one_blas_thread():
    """Run BLAS on one thread inside the block; the previous count comes back on exit.

    The count is restored on an exception too. Where numpy's BLAS exposes
    no thread setter (``BLAS_PINNABLE`` is False) the block runs unchanged.
    """
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


def resolve_dtype(dtype) -> np.dtype:
    if dtype is None:
        return np.dtype(_DTYPES[DEFAULT_DTYPE])
    if isinstance(dtype, str):
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; use 'float32' or 'float64'")
        return np.dtype(_DTYPES[dtype])
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    return dt


class Tensor:
    """Dense array plus a lazily allocated same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(resolve_dtype(dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d scalars to 1-d; keep them 0-d
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return self.data.dtype.name

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output, inputs, vjp):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


class _TapeStack(threading.local):
    """Each thread's stack of active tapes; a new thread starts with none."""

    def __init__(self):
        self.tapes: list[Tape] = []


_ACTIVE = _TapeStack()


class Tape:
    """Ordered record of executed ops; context manager activates recording."""

    def __init__(self):
        self.records: list[_Record] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.tapes.pop()
        assert popped is self, "tape context exited out of order"

    def __len__(self) -> int:
        return len(self.records)

    def zero_grads(self) -> None:
        """Clear grads of every tensor touched by this tape (for replay)."""
        for rec in self.records:
            rec.output.grad = None
            for t in rec.inputs:
                t.grad = None


def record_op(output: Tensor, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """Attach a backward rule to ``output`` on this thread's active tape, if any.

    ``vjp(grad_out)`` must return one gradient array (or None) per input,
    each exactly matching the input's shape, and each either freshly
    allocated or ``grad_out`` itself or a view of it (module docstring).
    """
    tapes = _ACTIVE.tapes
    if tapes and output.requires_grad:
        tape = tapes[-1]
        tape.records.append(_Record(output, inputs, vjp))
        tape._output_ids.add(id(output))
    return output


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` of every requires_grad tensor reachable from ``loss``."""
    if loss.size != 1:
        raise ValueError("backward: loss must be a scalar tensor")
    if id(loss) not in tape._output_ids:
        raise ValueError("backward: loss was not produced under this tape")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g = rec.output.grad
        if g is None:
            continue
        owned = [g]  # arrays some tensor already holds, or that belong to the output
        for t, gi in zip(rec.inputs, rec.vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                if any(np.may_share_memory(gi, o) for o in owned):
                    gi = gi.copy()
                t.grad = gi
                owned.append(gi)
            else:
                t.grad += gi


def _result_flag(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product; backward is dA = dC.B^T, dB = A^T.dC."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_result_flag(a, b))
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return record_op(out, (a, b), vjp)


def _binary_shapes(a: Tensor, b: Tensor, name: str):
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} are not scalar- or same-shape compatible")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; operands must be same-shape or one a scalar."""
    b = _as_tensor(b, a)
    _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data, requires_grad=_result_flag(a, b))

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return record_op(out, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; operands must be same-shape or one a scalar."""
    b = _as_tensor(b, a)
    _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data, requires_grad=_result_flag(a, b))
    ad, bd = a.data, b.data

    def vjp(g):
        return _reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)

    return record_op(out, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a Python constant."""
    c = float(c)
    out = Tensor(x.data * c, requires_grad=x.requires_grad)
    return record_op(out, (x,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0, so clipped entries stay gradient-silent."""
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)
    gate = x.data > 0

    def vjp(g):
        return (g * gate,)

    return record_op(out, (x,), vjp)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    out = Tensor(out_data, requires_grad=x.requires_grad)
    return record_op(out, (x,), lambda g: (g * out_data,))


def gelu(x: Tensor) -> Tensor:
    """Smooth gated activation (tanh form), used by the feed-forward blocks."""
    xd = x.data
    a = xd * xd  # x**3 falls off numpy's fast pow path; keep explicit products
    a *= SQRT_2_OVER_PI * _GELU_C
    a += SQRT_2_OVER_PI
    a *= xd  # u = sqrt(2/pi) (x + c x^3)
    np.tanh(a, out=a)
    a += 1.0  # a = 1 + tanh(u), kept for the backward
    y = xd * 0.5
    y *= a
    out = Tensor(y, requires_grad=x.requires_grad)

    def vjp(g):
        # d/dx = 0.5 a (1 + x (2 - a) du/dx): 1 - tanh(u)^2 = a (2 - a),
        # du/dx = sqrt(2/pi) (1 + 3c x^2)
        du = xd * xd
        du *= 3.0 * SQRT_2_OVER_PI * _GELU_C
        du += SQRT_2_OVER_PI
        d = np.subtract(2.0, a)
        d *= xd
        d *= du
        d += 1.0
        d *= a
        d *= 0.5
        d *= g
        return (d,)

    return record_op(out, (x,), vjp)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row zero-mean/unit-variance normalization followed by an affine map."""
    if x.ndim != 2:
        raise ShapeError(f"layernorm expects a 2-D input, got {x.shape}")
    d = x.shape[1]
    if d < 2:
        raise ShapeError("layernorm: feature dimension must be >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layernorm: gain/bias must be 1-D of the feature size")
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True)
    xhat = xd - mu
    y = xhat * xhat
    var = y.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, requires_grad=_result_flag(x, gain, bias))
    gd = gain.data

    def vjp(g):
        tmp = g * xhat
        dgain = tmp.sum(axis=0)
        dx = g * gd  # d xhat, turned into dx in place
        np.multiply(dx, xhat, out=tmp)
        proj = tmp.mean(axis=1, keepdims=True)
        np.multiply(xhat, proj, out=tmp)
        dx -= dx.mean(axis=1, keepdims=True)
        dx -= tmp
        dx *= inv
        return dx, dgain, g.sum(axis=0)

    return record_op(out, (x, gain, bias), vjp)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    n, v = logits.shape
    targets = np.asarray(targets).reshape(-1)
    if targets.shape[0] != n:
        raise ShapeError("cross_entropy: one target per logits row required")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise IndexError("cross_entropy: target id out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    logp = z[rows, targets] - np.log(total[:, 0])
    out = Tensor(np.asarray(-logp.mean(), dtype=logits.data.dtype),
                 requires_grad=logits.requires_grad)

    def vjp(g):
        d = e / total  # softmax probabilities
        d[rows, targets] -= 1.0
        d *= float(g) / n
        return (d,)

    return record_op(out, (logits,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer id."""
    ids = np.asarray(ids).reshape(-1)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise IndexError("embedding: id out of range")
    out = Tensor(table.data[ids], requires_grad=table.requires_grad)

    def vjp(g):
        # sum the rows of each id in a stable id order: one pass, no scatter-add
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order].astype(np.intp, copy=False)  # signed, for the -1 below
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        d = np.zeros_like(table.data)
        d[sorted_ids[starts]] = np.add.reduceat(g[order], starts, axis=0)
        return (d,)

    return record_op(out, (table,), vjp)


def add_row(x: Tensor, row: Tensor) -> Tensor:
    """Add a length-d vector to every row of an (n, d) tensor."""
    if x.ndim != 2 or row.shape != (x.shape[1],):
        raise ShapeError(f"add_row: got {x.shape} and {row.shape}")
    out = Tensor(x.data + row.data, requires_grad=_result_flag(x, row))

    def vjp(g):
        return g, g.sum(axis=0)

    return record_op(out, (x, row), vjp)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype), requires_grad=x.requires_grad)
    return record_op(out, (x,), lambda g: (np.full_like(x.data, float(g)),))
