"""Forward computation of the learned embeddings.

The visual head is a two-layer perceptron over the concatenation of a
clip's raw feature, the video-level context feature (mean over all clips)
and, optionally, the containing moment's normalized temporal endpoints.
The language head runs an LSTM over the query's word vectors and maps the
last hidden state linearly into the shared embedding space.

Ranges of a flat clip-feature matrix, named by start and count, are cut
only here: `embed_videos` embeds videos' clips, `range_means` gives each
range's mean (context tables, aggregate moments) and `moment_rows` each
moment's rows. Equal-count ranges go in capped stacks, with per-range bytes.

Forward passes are pure given immutable parameters; parameter mutation
happens only in the training module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Moment, VideoMeta, offsets, ranges


@dataclass(frozen=True)
class ModelDims:
    """Layer sizes of the two heads; `embed` is the shared output width."""

    visual_in: int
    word_in: int
    hidden_mlp: int = 500
    embed: int = 100
    hidden_lstm: int = 1000
    use_tef: bool = False
    tef_only: bool = False  # zero the visual and context input slots

    def __post_init__(self):
        for name in ("visual_in", "word_in", "hidden_mlp", "embed", "hidden_lstm"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.tef_only and not self.use_tef:
            raise ValueError("tef_only requires use_tef")

    @property
    def mlp_in(self) -> int:
        return self.visual_in * 2 + (2 if self.use_tef else 0)


@dataclass
class ModelParams:
    """All learned tensors. Mutable only inside the training loop."""

    dims: ModelDims
    mlp_w1: np.ndarray  # (hidden_mlp, mlp_in)
    mlp_b1: np.ndarray  # (hidden_mlp,)
    mlp_w2: np.ndarray  # (embed, hidden_mlp)
    mlp_b2: np.ndarray  # (embed,)
    lstm_wx: np.ndarray  # (4*hidden_lstm, word_in)
    lstm_wh: np.ndarray  # (4*hidden_lstm, hidden_lstm)
    lstm_b: np.ndarray  # (4*hidden_lstm,)
    proj_w: np.ndarray  # (embed, hidden_lstm)
    proj_b: np.ndarray  # (embed,)

    TENSOR_NAMES = (
        "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
        "lstm_wx", "lstm_wh", "lstm_b", "proj_w", "proj_b",
    )

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.TENSOR_NAMES}

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, *(getattr(self, n).copy() for n in self.TENSOR_NAMES))

    def validate(self) -> None:
        d = self.dims
        h = d.hidden_lstm
        expected = {
            "mlp_w1": (d.hidden_mlp, d.mlp_in),
            "mlp_b1": (d.hidden_mlp,),
            "mlp_w2": (d.embed, d.hidden_mlp),
            "mlp_b2": (d.embed,),
            "lstm_wx": (4 * h, d.word_in),
            "lstm_wh": (4 * h, h),
            "lstm_b": (4 * h,),
            "proj_w": (d.embed, h),
            "proj_b": (d.embed,),
        }
        for name, shape in expected.items():
            t = getattr(self, name)
            if t.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {t.shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"{name}: contains non-finite entries")


def init_params(dims: ModelDims, seed: int) -> ModelParams:
    """Deterministic fan-based uniform init; LSTM forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)
    h = dims.hidden_lstm

    def uniform(shape):
        fan_out, fan_in = shape
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)

    lstm_b = np.zeros(4 * h)
    lstm_b[h:2 * h] = 1.0  # forget gate rows
    params = ModelParams(
        dims=dims,
        mlp_w1=uniform((dims.hidden_mlp, dims.mlp_in)),
        mlp_b1=np.zeros(dims.hidden_mlp),
        mlp_w2=uniform((dims.embed, dims.hidden_mlp)),
        mlp_b2=np.zeros(dims.embed),
        lstm_wx=uniform((4 * h, dims.word_in)),
        lstm_wh=uniform((4 * h, h)),
        lstm_b=lstm_b,
        proj_w=uniform((dims.embed, h)),
        proj_b=np.zeros(dims.embed),
    )
    params.validate()
    return params


_EMPTY_CLIPS = "clip features must be a non-empty (num_clips, dim) matrix"

# Rows per stacked `embed_clips` call in `embed_videos`. The cap bounds the
# call's temporaries, which a corpus-wide embedding adds to the peak memory
# of the searching process: at 1,024 rows perfbench's didemo-exhaustive peak
# RSS rose 2.4%, at 256 rows 0.3%, and larger chunks are barely faster.
_EMBED_CHUNK_ROWS = 256

# Rows gathered for one stacked `mean` in `range_means`: 256 KB at 32
# features per clip.
_MEAN_CHUNK_ROWS = 1024


def compute_context(clip_features: np.ndarray) -> np.ndarray:
    """Video-level context: mean of the raw clip features over the whole video.
    A (videos, num_clips, dim) stack gives one row per video."""
    feats = np.asarray(clip_features, dtype=np.float64)
    if feats.ndim not in (2, 3) or feats.shape[-2] < 1:
        raise ValueError(_EMPTY_CLIPS)
    return feats.mean(axis=-2)


def tef(moment: Moment, video: VideoMeta) -> tuple[float, float]:
    """Moment endpoints normalized by the video duration."""
    if moment.video_id != video.video_id:
        raise ValueError(f"moment belongs to {moment.video_id}, not {video.video_id}")
    return (moment.span.start / video.duration, moment.span.end / video.duration)


def assemble_visual_inputs(
    clip_features: np.ndarray,
    context: np.ndarray,
    tef_pair: Optional[np.ndarray | tuple[float, float]],
    dims: ModelDims,
) -> np.ndarray:
    """Stack per-clip MLP input rows: clip feature | context | optional TEF.

    `clip_features` is one video's (n, visual_in) rows or a (videos, n,
    visual_in) stack of videos. `context` and `tef_pair` are each one row
    shared by every clip of a video or one row per clip; this is the only
    place where a moment's rows become MLP inputs. In tef_only mode the
    visual and context slots are zeroed so only the endpoints carry signal.
    """
    feats = np.asarray(clip_features, dtype=np.float64)
    _check_width(feats.shape, dims)
    if dims.use_tef:
        if tef_pair is None:
            raise ValueError("model uses TEF but no endpoints were supplied")
        tef_cols = _per_row(tef_pair, feats.shape[:-1] + (2,), "TEF endpoints")
    else:
        if tef_pair is not None:
            raise ValueError("TEF supplied to a model that does not use it")
        tef_cols = np.zeros(feats.shape[:-1] + (0,))
    if dims.tef_only:
        feats = np.zeros_like(feats)
        ctx_cols = np.zeros_like(feats)
    else:
        ctx_cols = _per_row(context, feats.shape, "context")
    return np.concatenate([feats, ctx_cols, tef_cols], axis=-1)


def _check_width(shape: tuple, dims: ModelDims) -> None:
    if len(shape) not in (2, 3) or shape[-1] != dims.visual_in:
        raise ValueError(f"clip features must be (n, {dims.visual_in}), got {shape}")


def _per_row(values, shape: tuple, what: str) -> np.ndarray:
    """One row per video (`shape` without its clip axis) or one row per
    clip (`shape`), read as `shape`."""
    arr = np.asarray(values, dtype=np.float64)
    per_video = shape[:-2] + shape[-1:]
    if arr.shape == per_video:
        arr = arr[..., None, :]
    elif arr.shape != shape:
        raise ValueError(f"{what} must be {per_video} or {shape}, got {arr.shape}")
    return np.broadcast_to(arr, shape)


def mlp_forward(inputs: np.ndarray, params: ModelParams, want_cache: bool = False):
    """Affine -> ReLU -> affine over input rows. Returns (n, embed)
    embeddings, or (videos, n, embed) for a stack of videos' rows: numpy
    runs each video's GEMMs as their own BLAS calls, so a video's rows get
    the same bytes stacked or alone. The bias adds and the ReLU work in
    place; the backward pass masks with `a1 > 0`, which equals the
    pre-ReLU `z1 > 0` for every float."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.dims.mlp_in:
        raise ValueError(f"MLP inputs must be (n, {params.dims.mlp_in}), got {x.shape}")
    z1 = x @ params.mlp_w1.T
    z1 += params.mlp_b1
    a1 = np.maximum(z1, 0.0, out=z1)
    out = a1 @ params.mlp_w2.T
    out += params.mlp_b2
    if want_cache:
        return out, {"x": x, "a1": a1}
    return out


def embed_clips(
    clip_features: np.ndarray,
    context: np.ndarray,
    tef_pair: Optional[np.ndarray | tuple[float, float]],
    params: ModelParams,
) -> np.ndarray:
    """Embed clip rows through the visual head; one output row per clip
    (for a stack of videos, one (n, embed) block per video)."""
    inputs = assemble_visual_inputs(clip_features, context, tef_pair, params.dims)
    return mlp_forward(inputs, params)


def _equal_count_chunks(counts: np.ndarray, cap_rows: int):
    """Yield (n, indices of `counts` entries equal to n) in chunks of at most
    `cap_rows` summed rows (a longer entry alone): about the distinct counts
    plus total rows / cap chunks, whatever the entries' order."""
    for n in np.unique(counts).tolist():
        members = np.flatnonzero(counts == n)
        step = max(1, cap_rows // n)
        for s in range(0, len(members), step):
            yield n, members[s:s + step]


def range_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """values[starts[i]:starts[i] + counts[i]].mean(axis=0) of each range (int
    arrays, counts >= 1; ranges may overlap and come in any order), gathered in
    (ranges, count, width) stacks of at most `_MEAN_CHUNK_ROWS` rows. A stacked
    mean sums each range's rows in a lone range's order, so every row has the
    bytes of a per-range call (`np.add.reduceat` sums in another order)."""
    means = np.empty((len(counts), values.shape[1]))
    for n, chunk in _equal_count_chunks(counts, _MEAN_CHUNK_ROWS):
        means[chunk] = np.take(values, starts[chunk, None] + np.arange(n), axis=0).mean(axis=1)
    return means


def moment_rows(clip_features: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                pooled: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows, moment of each row) for moments that are ranges of
    `clip_features` (starts[i], counts[i]): each moment's clip rows in order,
    or under `pooled` (the "aggregate" variant) its one `range_means` row."""
    if pooled:
        return range_means(clip_features, starts, counts), np.arange(len(counts))
    return clip_features[ranges(starts, counts)], np.repeat(np.arange(len(counts)), counts)


def embed_videos(clip_features: np.ndarray, starts: np.ndarray, num_clips: np.ndarray,
                 contexts: np.ndarray, params: ModelParams, dtype=np.float64) -> np.ndarray:
    """The non-TEF clip embeddings of videos, stacked in order into one
    `dtype` matrix. Video v's clips are rows starts[v] .. starts[v] +
    num_clips[v] - 1 of the flat `clip_features`, and contexts[v] is its
    `compute_context` row.

    Equal-count videos are gathered into (videos, clips, visual_in) chunks of
    at most `_EMBED_CHUNK_ROWS` rows, one `embed_clips` call each. A
    stacked GEMM is one BLAS call per video with the per-video shape, so
    every row has the bytes of its video's own `embed_clips` call; one flat
    GEMM over many videos would round differently. A TEF model, features of
    another width and a video without clips raise `ValueError` with the
    messages of `embed_clips` and `compute_context`."""
    counts = np.asarray(num_clips, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    if counts.min(initial=1) < 1:
        raise ValueError(_EMPTY_CLIPS)
    out_starts = offsets(counts)
    matrix = np.empty((int(counts.sum()), params.dims.embed), dtype=dtype)
    for n, chunk in _equal_count_chunks(counts, _EMBED_CHUNK_ROWS):
        clips = np.arange(n)
        matrix[out_starts[chunk, None] + clips] = embed_clips(
            clip_features[starts[chunk, None] + clips], contexts[chunk], None, params)
    return matrix


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: one e = exp(-|x|) serves both
    signs, 1 / (1 + e) where x >= 0 and e / (1 + e) where x < 0."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    out = 1.0 / d
    np.divide(e, d, out=out, where=x < 0)
    return out


def lstm_forward_batch(
    words: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    want_cache: bool = False,
):
    """Run the LSTM over padded word sequences.

    words: (batch, steps, word_in); mask: (batch, steps) with 1 for real
    words. The hidden and cell states freeze on padded steps, so the
    returned (batch, hidden) state is each sequence's last real step.

    Gate rows are packed input, forget, output, cell: one sigmoid call per
    step covers the first three blocks. With `want_cache`, each step also
    keeps the tuple `_lstm_backward` reads: (x_t, h_prev, c_prev, s3, g,
    tanh_c, m, 1 - m), where s3 holds the i | f | o gate activations.
    """
    words = np.asarray(words, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    b, t_max, _ = words.shape
    h_dim = params.dims.hidden_lstm
    h3 = 3 * h_dim
    wx_t, wh_t, bias = params.lstm_wx.T, params.lstm_wh.T, params.lstm_b
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    steps = []
    for t in range(t_max):
        x_t = words[:, t, :]
        alpha = x_t @ wx_t + h @ wh_t + bias
        s3 = sigmoid(alpha[:, :h3])
        g = np.tanh(alpha[:, h3:])
        c_new = s3[:, h_dim:2 * h_dim] * c + s3[:, :h_dim] * g
        tanh_c = np.tanh(c_new)
        h_new = s3[:, 2 * h_dim:] * tanh_c
        m = mask[:, t, None]
        keep = 1.0 - m
        if want_cache:
            steps.append((x_t, h, c, s3, g, tanh_c, m, keep))
        h = m * h_new + keep * h
        c = m * c_new + keep * c
    if want_cache:
        return h, steps
    return h


def embed_query(word_vectors: np.ndarray, params: ModelParams) -> np.ndarray:
    """Language-head embedding of one query."""
    words = np.asarray(word_vectors, dtype=np.float64)
    if words.ndim != 2 or words.shape[0] == 0:
        raise ValueError("query needs a non-empty (T, word_in) word matrix")
    if words.shape[1] != params.dims.word_in:
        raise ValueError(
            f"word vectors have dim {words.shape[1]}, model expects {params.dims.word_in}"
        )
    h = lstm_forward_batch(words[None, :, :], np.ones((1, words.shape[0])), params)
    return h[0] @ params.proj_w.T + params.proj_b
