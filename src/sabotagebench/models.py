"""Network definitions.

SimpleCNN: conv1 -> ReLU -> conv2 -> maxpool2x2 -> ReLU -> fc1 -> ReLU -> fc2.
The mid-layer tap (gate input and mirror-test embedding) is the pooled,
rectified activation tensor.

conv2's output is pooled before its ReLU, so the ReLU and its mask run on a
tensor 4x smaller, and the backward runs the ReLU's backward at pooled size
and lets maxpool2x2_backward write conv2's gradient directly. This keeps
the bytes of ReLU-then-pool. Max and max-with-0 commute: a window with a
positive entry pools to the same value at the same index either way, and a
window whose entries are all negative pools to -0.0 either way (max * 0
here, the ReLU's -0.0 entries there). Only the index of such a window moves,
from the first of four tied zeros to the first raw maximum. Its gradient is
dy * 0 either way, a zero with dy's sign, now at another position of
conv2's gradient; a zero's sign only shows in a sum of zeros, so only a
parameter gradient of zero can change sign, and -0.0 steps like +0.0 (see
`sgd_step`): every parameter keeps its bytes. (A conv2 output of exactly
+0.0 next to negatives would pool to +0.0 here and to -0.0 there; no later
sum sees the sign.)

Each ReLU writes over its input (nncore.relu), so the first overwrites
conv1's output: `x * mask` keeps the -0.0 of a negative value and keeps a
non-finite value non-finite, so a NaN still names conv1, and conv1's cache
holds its input columns, not its output.

Inside the trunk the activations are channels-last ([N,H,W,C], see
nncore.ops); the input images [N,1,H,W] are viewed that way, and the pooled
output is transposed once and flattened, so the midlayer is [N, feature_dim]
in (C, H/2, W/2) order. fc1's row order, the gate's input and the mirror
embeddings all read it in that layout.

The integrated rejection variant is the same backbone with an
(N_CLASSES+1)-way head; class N_CLASSES is the rejection class.

Only the widths (`conv1_channels`, `conv2_channels`, `fc_hidden`) and the
image size are settable. The rest of the shape is fixed: N_CLASSES (ten)
outputs, one input channel, and 3x3 kernels with padding 1, so each conv
keeps the spatial size.

The conv trunk (conv1 -> ReLU -> conv2 -> pool -> ReLU) computes
each image on its own, byte for byte: the midlayer rows of a batch equal a
forward of just those rows, whatever the batch size. The fc head does not:
a 1-row GEMM goes through GEMV and rounds differently from the same row of
a larger batch. `SimpleCNN.narrow` builds on this. It cuts a forward's
cache down to some rows, keeping the trunk's entries and rerunning only
the head, so a training step on those rows costs no second trunk pass.

Inference builds on it too. `extract_embeddings` runs the trunk over
pieces of a training batch's size and keeps no cache: its convs fill their
im2col columns one block of images at a time (`conv2d(..., keep_cols=False)`),
so a 64-image piece peaks at about 16 MiB, where a 512-image chunk in one
piece would hold 49 MiB in conv2's output alone. `head` then runs once over
all of the midlayer's rows, so the logits hold the same bytes as those of
one `forward(x)`.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES
from .errors import NumericsError, ShapeError, ValidationError
from .nncore import (
    ParamSet,
    conv2d,
    conv2d_backward,
    conv2d_cache_rows,
    dropout,
    dropout_backward,
    fan_in_uniform,
    linear,
    linear_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    require_finite,
    sigmoid,
)

IN_CHANNELS = 1
KERNEL_SIZE = 3
PADDING = 1
# The budget that sizes an inference trunk piece (`SimpleCNN.trunk_piece`):
# the im2col matrix its images would need in a training step. 32 MiB holds
# conv2's for a stock batch of 64 (27.6 MiB), so a piece's activations stay
# at a training step's size and inference adds nothing to the peak memory.
TRUNK_PIECE_BYTES = 32 << 20


@dataclass
class ModelConfig:
    conv1_channels: int = 16
    conv2_channels: int = 32
    fc_hidden: int = 128
    image_size: int = 28

    def __post_init__(self) -> None:
        for name in ("conv1_channels", "conv2_channels", "fc_hidden"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % 2:
            raise ValidationError(f"image_size must be even, got {self.image_size}")

    @property
    def pooled_size(self) -> int:
        return self.image_size // 2

    @property
    def feature_dim(self) -> int:
        """Flattened mid-layer width (post-conv2 + pool)."""
        return self.conv2_channels * self.pooled_size * self.pooled_size


class SimpleCNN:
    """Two-conv CNN with a two-layer linear head.

    `n_outputs` defaults to the class count; the integrated rejection model
    passes N_CLASSES + 1. Forward is pure (cache returned to the caller);
    backward writes every gradient buffer of the ParamSet (see ParamSet).
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, n_outputs: int | None = None):
        self.cfg = cfg
        self.n_outputs = N_CLASSES if n_outputs is None else int(n_outputs)
        k = KERNEL_SIZE
        params = ParamSet()
        fan1 = IN_CHANNELS * k * k
        params.add("conv1_w", fan_in_uniform(rng, (cfg.conv1_channels, IN_CHANNELS, k, k), fan1))
        params.add("conv1_b", fan_in_uniform(rng, (cfg.conv1_channels,), fan1))
        fan2 = cfg.conv1_channels * k * k
        params.add("conv2_w", fan_in_uniform(rng, (cfg.conv2_channels, cfg.conv1_channels, k, k), fan2))
        params.add("conv2_b", fan_in_uniform(rng, (cfg.conv2_channels,), fan2))
        # skip the draws of a retired 1x1 conv2 bypass, so fc1 and fc2 keep their values
        rng.random(cfg.conv2_channels * (cfg.conv1_channels + 1))
        feat = cfg.feature_dim
        params.add("fc1_w", fan_in_uniform(rng, (feat, cfg.fc_hidden), feat))
        params.add("fc1_b", fan_in_uniform(rng, (cfg.fc_hidden,), feat))
        params.add("fc2_w", fan_in_uniform(rng, (cfg.fc_hidden, self.n_outputs), cfg.fc_hidden))
        params.add("fc2_b", fan_in_uniform(rng, (self.n_outputs,), cfg.fc_hidden))
        self.params = params

    def forward(self, x: np.ndarray):
        """Return (logits [N,n_outputs], midlayer [N,feature_dim], cache)."""
        mid, h1, h2, cache = self._trunk(x)
        # No later layer turns a NaN or inf finite again (inf * 0 is NaN), so
        # one scan of the logits covers the whole forward; only when it fails
        # are the layers scanned in order, to name the first non-finite one.
        try:
            logits, head = self._head(mid)
        except NumericsError:
            self._name_nonfinite(h1, h2)
            raise
        cache.update(head)
        return logits, mid, cache

    def head(self, mid: np.ndarray) -> np.ndarray:
        """The logits of the fc head over a midlayer [N, feature_dim]; keeps
        no cache."""
        return self._head(mid)[0]

    def trunk_piece(self, dtype) -> int:
        """Images per inference trunk piece: the largest power of two of
        images whose training step keeps its biggest buffer, the training
        forward's im2col matrix (conv2's, as conv1 has one input channel),
        under `TRUNK_PIECE_BYTES`.

        Inference builds no such matrix itself (see `extract_embeddings`);
        the rule sizes a piece like a training batch, so a piece's
        activations (conv outputs, ReLU masks, pooling) take no more memory
        than a training step's, however many images inference runs over. A
        power of two, not simply the most that fit (74 at the stock shapes),
        so that at the stock shapes a piece is a stock training batch of 64.
        """
        cfg = self.cfg
        taps = KERNEL_SIZE * KERNEL_SIZE * cfg.image_size * cfg.image_size
        per_image = cfg.conv1_channels * taps * np.dtype(dtype).itemsize
        fits = max(1, TRUNK_PIECE_BYTES // per_image)
        return 1 << (fits.bit_length() - 1)

    def _trunk(self, x: np.ndarray, keep_cols: bool = True):
        """conv1 -> ReLU -> conv2 -> pool -> ReLU; returns (mid [N,feature_dim],
        h1 (conv1's output, rectified in place), h2 (conv2's output), trunk
        cache). h1 and h2 are [N,H,W,C]. With keep_cols False the convs keep
        no im2col columns, and the cache holds None for them."""
        if x.ndim != 4:
            raise ShapeError(f"images must be [N,C,H,W], got shape {tuple(x.shape)}")
        p = self.params
        x = x.transpose(0, 2, 3, 1)
        h1, c_conv1 = conv2d(x, p["conv1_w"].value, p["conv1_b"].value, PADDING,
                             keep_cols=keep_cols)
        h1, m_relu1 = relu(h1)
        h2, c_conv2 = conv2d(h1, p["conv2_w"].value, p["conv2_b"].value, PADDING,
                             keep_cols=keep_cols)
        pooled, idx_pool = maxpool2x2(h2)
        pooled, m_relu2 = relu(pooled)
        mid = np.ascontiguousarray(pooled.transpose(0, 3, 1, 2)).reshape(len(pooled), -1)
        cache = {
            "conv1": c_conv1,
            "relu1": m_relu1,
            "conv2": c_conv2,
            "relu2": m_relu2,
            "pool_idx": idx_pool,
        }
        return mid, h1, h2, cache

    @staticmethod
    def _name_nonfinite(h1: np.ndarray, h2: np.ndarray) -> None:
        require_finite("conv1", h1)
        require_finite("conv2", h2)

    def _head(self, mid: np.ndarray):
        """fc1 -> ReLU -> fc2 on the midlayer; returns (logits, head cache)."""
        p = self.params
        f1, c_fc1 = linear(mid, p["fc1_w"].value, p["fc1_b"].value)
        a3, m_relu3 = relu(f1)
        logits, c_fc2 = linear(a3, p["fc2_w"].value, p["fc2_b"].value)
        try:
            require_finite("fc2", logits)
        except NumericsError:
            require_finite("fc1", f1)
            raise
        return logits, {"fc1": c_fc1, "relu3": m_relu3, "fc2": c_fc2}

    def narrow(self, cache, mid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Cut a forward's cache down to `rows` in place; return their logits.

        `cache` and `mid` come from one `forward` call, and the parameters
        must not have changed since. The trunk entries are sliced, since they
        hold the bytes a forward of x[rows] would cache; the head is rerun on
        mid[rows]. The cache stays the dict object `forward` returned, and
        `backward` then takes it like the cache of a forward of x[rows].
        """
        logits, head = self._head(mid[rows])
        cache["conv1"] = conv2d_cache_rows(cache["conv1"], rows)
        cache["relu1"] = cache["relu1"][rows]
        cache["conv2"] = conv2d_cache_rows(cache["conv2"], rows)
        cache["relu2"] = cache["relu2"][rows]
        cache["pool_idx"] = cache["pool_idx"][rows]
        cache.update(head)
        return logits

    def backward(self, dlogits: np.ndarray, cache) -> None:
        """Write every parameter's gradient for one forward pass."""
        p = self.params
        da3, _, db = linear_backward(dlogits, cache["fc2"], dw_out=p["fc2_w"].grad)
        p["fc2_b"].grad[...] = db
        df1 = relu_backward(da3, cache["relu3"])
        dflat, _, db = linear_backward(df1, cache["fc1"], dw_out=p["fc1_w"].grad)
        p["fc1_b"].grad[...] = db
        size = self.cfg.pooled_size
        dmid = dflat.reshape(len(dflat), self.cfg.conv2_channels, size, size)
        dpooled = relu_backward(dmid.transpose(0, 2, 3, 1), cache["relu2"])
        dh2 = maxpool2x2_backward(dpooled, cache["pool_idx"])
        da1, dw, db = conv2d_backward(dh2, cache["conv2"])
        p["conv2_w"].grad[...] = dw
        p["conv2_b"].grad[...] = db
        dh1 = relu_backward(da1, cache["relu1"])
        _, dw, db = conv2d_backward(dh1, cache["conv1"], input_grad=False)
        p["conv1_w"].grad[...] = dw
        p["conv1_b"].grad[...] = db


def make_irm_model(cfg: ModelConfig, rng: np.random.Generator) -> SimpleCNN:
    """Same backbone with N_CLASSES + 1 outputs; class N_CLASSES rejects."""
    return SimpleCNN(cfg, rng, n_outputs=N_CLASSES + 1)


def extract_embeddings(model: SimpleCNN, images: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The midlayer of `model.forward(images)`, byte for byte, without a cache
    and without the head; never mutates parameters.

    The trunk runs over pieces of `trunk_piece` images (64 at the stock
    shapes) and builds no full im2col matrix, so inference never holds a
    buffer bigger than a training step's. Each piece's activations are
    dropped before the next piece runs. Each piece's rows are written into
    `out` when given ([N, feature_dim], of the result's dtype), else into a
    new array.
    """
    dtype = np.result_type(images.dtype, model.params["conv1_w"].value.dtype)
    shape = (images.shape[0], model.cfg.feature_dim)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"embedding output must be {dtype} {shape}, got "
                         f"{out.dtype} {out.shape}")
    piece = model.trunk_piece(images.dtype)
    for start in range(0, images.shape[0], piece):
        mid, h1, h2 = model._trunk(images[start : start + piece], keep_cols=False)[:3]
        try:
            require_finite("pool", mid)
        except NumericsError:
            model._name_nonfinite(h1, h2)
            raise
        out[start : start + mid.shape[0]] = mid
    return out


# -------------------------------------------------------------------- gate


@dataclass
class GateConfig:
    input_dim: int
    hidden: int
    dropout: float

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValidationError(f"gate input_dim must be >= 1, got {self.input_dim}")
        if self.hidden < 1:
            raise ValidationError(f"gate hidden must be >= 1, got {self.hidden}")
        if not 0 <= self.dropout < 1:
            raise ValidationError(f"gate dropout must lie in [0, 1), got {self.dropout}")


class MlpBinary:
    """flatten -> hidden ReLU -> dropout (train only) -> sigmoid scalar."""

    def __init__(self, cfg: GateConfig, rng: np.random.Generator):
        self.cfg = cfg
        params = ParamSet()
        params.add("w1", fan_in_uniform(rng, (cfg.input_dim, cfg.hidden), cfg.input_dim))
        params.add("b1", fan_in_uniform(rng, (cfg.hidden,), cfg.input_dim))
        params.add("w2", fan_in_uniform(rng, (cfg.hidden, 1), cfg.hidden))
        params.add("b2", fan_in_uniform(rng, (1,), cfg.hidden))
        self.params = params

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None):
        """Return (scores in [0,1], logits, cache) for flattened inputs [N,D]."""
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ValidationError(
                f"gate input must be [N,{self.cfg.input_dim}], got shape {tuple(x.shape)}"
            )
        p = self.params
        h, c1 = linear(x, p["w1"].value, p["b1"].value)
        a, mask = relu(h)
        if train and self.cfg.dropout > 0 and rng is None:
            raise ValidationError("training-mode gate forward needs an rng for dropout")
        d, dmask = dropout(a, self.cfg.dropout, rng, train)
        z, c2 = linear(d, p["w2"].value, p["b2"].value)
        logits = z[:, 0]
        require_finite("gate", logits)
        cache = {"fc1": c1, "relu": mask, "drop": dmask, "fc2": c2}
        return sigmoid(logits), logits, cache

    def backward(self, dlogits: np.ndarray, cache) -> None:
        p = self.params
        dz = dlogits[:, None]
        dd, _, db = linear_backward(dz, cache["fc2"], dw_out=p["w2"].grad)
        p["b2"].grad[...] = db
        da = dropout_backward(dd, cache["drop"])
        dh = relu_backward(da, cache["relu"])
        _, _, db = linear_backward(dh, cache["fc1"], input_grad=False, dw_out=p["w1"].grad)
        p["b1"].grad[...] = db
