"""Small MLP encoder plus linear classifier, with hand-derived backprop.

The encoder is a chain of affine layers with ReLU between them; the final
affine output is the representation that the alignment losses act on, and a
linear classifier maps it to logits. Gradients are exact, so the whole
objective can be checked against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .fileio import atomic_open
from .numerics import make_rng


@dataclass
class ModelParams:
    """Every parameter in one contiguous float64 vector ``flat`` (zeros when
    not given). ``weights``, ``biases``, ``cls_w`` and ``cls_b`` are views of
    it, laid out in that order, so ``flat[n_encoder:]`` is the classifier.
    A gradient has the same layout, so it is a ModelParams too.
    """

    input_dim: int
    hidden: tuple
    rep_dim: int
    num_classes: int
    flat: np.ndarray | None = None

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        sizes = [self.input_dim, *self.hidden, self.rep_dim]
        shapes = ([(o, i) for i, o in zip(sizes[:-1], sizes[1:])]
                  + [(o,) for o in sizes[1:]]
                  + [(self.num_classes, self.rep_dim), (self.num_classes,)])
        offsets = [0, *accumulate(math.prod(s) for s in shapes)]
        if self.flat is None:
            self.flat = np.zeros(offsets[-1])
        if self.flat.shape != (offsets[-1],) or self.flat.dtype != np.float64:
            raise ValidationError("parameter vector does not match the dims")
        views = [self.flat[a:b].reshape(shape)
                 for a, b, shape in zip(offsets, offsets[1:], shapes)]
        layers = len(sizes) - 1
        self.weights, self.biases = views[:layers], views[layers:-2]
        self.cls_w, self.cls_b = views[-2:]
        self.n_encoder = offsets[-3]

    def copy(self) -> "ModelParams":
        return replace(self, flat=self.flat.copy())

    def __reduce__(self):
        # pickle the buffer once; the views are rebuilt on load
        return ModelParams, (self.input_dim, self.hidden, self.rep_dim,
                             self.num_classes, self.flat)


def init(input_dim: int, hidden, rep_dim: int, num_classes: int,
         seed: int) -> ModelParams:
    """Uniform ``+-sqrt(6 / (fan_in + fan_out))`` weights, zero biases."""
    if min(input_dim, rep_dim, *hidden) < 1 or num_classes < 2:
        raise ValidationError("invalid model dimensions: input_dim, hidden "
                              "and rep_dim must be >= 1, num_classes >= 2")
    rng = make_rng(seed, stream=7)
    params = ModelParams(input_dim, hidden, rep_dim, num_classes)
    for w in params.weights + [params.cls_w]:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: ModelParams, x):
    """Run the network; returns (z, logits, cache for backward).

    ``x`` may be one input vector or a batch (n, input_dim).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params.input_dim:
        raise ValidationError(
            f"input dim {x.shape[1]} != expected {params.input_dim}"
        )
    activations = [x]
    pre_acts = []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w.T
        pre += b
        pre_acts.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
        activations.append(h)
    z = h
    logits = z @ params.cls_w.T + params.cls_b
    cache = {"activations": activations, "pre_acts": pre_acts, "z": z}
    if single:
        return z[0], logits[0], cache
    return z, logits, cache


def backward(params: ModelParams, cache, grad_z, grad_logits,
             out: ModelParams | None = None) -> ModelParams:
    """Exact parameter gradients for upstream (grad_z, grad_logits).

    ``grad_logits`` flows through the classifier and adds its share to the
    representation gradient before the encoder backward pass. The gradient
    is written through the views of ``out`` (a new zero ModelParams of the
    same dims when not given), which is returned; ``out.flat`` is the flat
    gradient.
    """
    z = cache["z"]
    n = z.shape[0]
    grad_z = np.asarray(grad_z, dtype=np.float64).reshape(n, -1)
    grad_logits = np.asarray(grad_logits, dtype=np.float64).reshape(n, -1)
    if grad_z.shape[1] != params.rep_dim \
            or grad_logits.shape[1] != params.num_classes:
        raise ValidationError("upstream gradient shapes do not match model")
    if out is None:
        out = replace(params, flat=None)

    np.matmul(grad_logits.T, z, out=out.cls_w)
    grad_logits.sum(axis=0, out=out.cls_b)
    delta = grad_z + grad_logits @ params.cls_w
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta *= cache["pre_acts"][i] > 0
        np.matmul(delta.T, cache["activations"][i], out=out.weights[i])
        delta.sum(axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ params.weights[i]
    return out


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path, seed: int = 0,
                    step: int = 0) -> None:
    payload = {
        "dims": {
            "input": params.input_dim,
            "hidden": list(params.hidden),
            "rep": params.rep_dim,
            "classes": params.num_classes,
        },
        "encoder": [
            {"w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
        "classifier": {
            "w": params.cls_w.ravel().tolist(),
            "b": params.cls_b.tolist(),
        },
        "seed": int(seed),
        "step": int(step),
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload) + "\n")


def load_checkpoint(path) -> ModelParams:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"checkpoint is not valid JSON: {exc}")
    try:
        dims = data["dims"]
        sizes = [dims["input"], *dims["hidden"], dims["rep"]]
        if len(data["encoder"]) != len(sizes) - 1:
            raise ValidationError(f"checkpoint has {len(data['encoder'])} "
                                  f"encoder layers, dims need {len(sizes) - 1}")
        layers = data["encoder"]
        pieces = [_vector(layer["w"], fan_out * fan_in, "encoder weight")
                  for layer, fan_in, fan_out in zip(layers, sizes, sizes[1:])]
        pieces += [_vector(layer["b"], fan_out, "encoder bias")
                   for layer, fan_out in zip(layers, sizes[1:])]
        pieces += [_vector(data["classifier"]["w"],
                           dims["classes"] * dims["rep"], "classifier weight"),
                   _vector(data["classifier"]["b"], dims["classes"],
                           "classifier bias")]
        return ModelParams(dims["input"], dims["hidden"], dims["rep"],
                           dims["classes"], np.concatenate(pieces))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed checkpoint: {exc}")


def _vector(values, size: int, what: str) -> np.ndarray:
    v = np.array(values, dtype=np.float64)
    if v.shape != (size,):
        raise ValidationError(f"{what} has shape {v.shape}, expected ({size},)")
    return v
