"""Small MLP encoder plus linear classifier, with hand-derived backprop.

The encoder is a chain of affine layers with ReLU between them; the final
affine output is the representation that the alignment losses act on, and a
linear classifier maps it to logits. Gradients are exact, so the whole
objective can be checked against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import make_rng


@dataclass
class ModelParams:
    weights: list       # encoder weights, weights[i]: (fan_out, fan_in)
    biases: list        # encoder biases, biases[i]: (fan_out,)
    cls_w: np.ndarray   # (num_classes, rep_dim)
    cls_b: np.ndarray   # (num_classes,)
    input_dim: int
    hidden: tuple
    rep_dim: int
    num_classes: int

    def copy(self) -> "ModelParams":
        return ModelParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.cls_w.copy(),
            self.cls_b.copy(),
            self.input_dim,
            self.hidden,
            self.rep_dim,
            self.num_classes,
        )

    def encoder_arrays(self):
        return self.weights + self.biases

    def all_arrays(self):
        return self.weights + self.biases + [self.cls_w, self.cls_b]


def init(input_dim: int, hidden, rep_dim: int, num_classes: int,
         seed: int) -> ModelParams:
    """Uniform ``+-sqrt(6 / (fan_in + fan_out))`` weights, zero biases."""
    if input_dim < 1 or rep_dim < 1 or num_classes < 2:
        raise ValidationError("invalid model dimensions")
    rng = make_rng(seed, stream=7)
    sizes = [input_dim, *hidden, rep_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    bound = np.sqrt(6.0 / (rep_dim + num_classes))
    cls_w = rng.uniform(-bound, bound, size=(num_classes, rep_dim))
    cls_b = np.zeros(num_classes)
    return ModelParams(weights, biases, cls_w, cls_b, input_dim,
                       tuple(hidden), rep_dim, num_classes)


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
        pre = h @ w.T + b
        pre_acts.append(pre)
        h = pre if i == last else np.maximum(pre, 0.0)
        activations.append(h)
    z = h
    logits = z @ params.cls_w.T + params.cls_b
    cache = {"activations": activations, "pre_acts": pre_acts, "z": z}
    if single:
        return z[0], logits[0], cache
    return z, logits, cache


def backward(params: ModelParams, cache, grad_z, grad_logits):
    """Exact parameter gradients for upstream (grad_z, grad_logits).

    ``grad_logits`` flows through the classifier and adds its share to the
    representation gradient before the encoder backward pass. Returns
    (weight grads, bias grads, classifier weight grad, classifier bias grad).
    """
    z = cache["z"]
    n = z.shape[0]
    grad_z = np.asarray(grad_z, dtype=np.float64).reshape(n, -1)
    grad_logits = np.asarray(grad_logits, dtype=np.float64).reshape(n, -1)
    if grad_z.shape[1] != params.rep_dim \
            or grad_logits.shape[1] != params.num_classes:
        raise ValidationError("upstream gradient shapes do not match model")

    g_cls_w = grad_logits.T @ z
    g_cls_b = grad_logits.sum(axis=0)
    delta = grad_z + grad_logits @ params.cls_w

    g_weights = [None] * len(params.weights)
    g_biases = [None] * len(params.biases)
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (cache["pre_acts"][i] > 0)
        g_weights[i] = delta.T @ cache["activations"][i]
        g_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i]
    return g_weights, g_biases, g_cls_w, g_cls_b


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
            {"w": [float(v) for v in w.ravel()], "b": [float(v) for v in b]}
            for w, b in zip(params.weights, params.biases)
        ],
        "classifier": {
            "w": [float(v) for v in params.cls_w.ravel()],
            "b": [float(v) for v in params.cls_b],
        },
        "seed": int(seed),
        "step": int(step),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


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
        weights, biases = [], []
        for layer, fan_in, fan_out in zip(data["encoder"], sizes[:-1],
                                          sizes[1:]):
            weights.append(
                np.array(layer["w"], dtype=np.float64).reshape(fan_out, fan_in)
            )
            biases.append(_vector(layer["b"], fan_out, "encoder bias"))
        cls_w = np.array(data["classifier"]["w"], dtype=np.float64).reshape(
            dims["classes"], dims["rep"]
        )
        cls_b = _vector(data["classifier"]["b"], dims["classes"],
                        "classifier bias")
        return ModelParams(weights, biases, cls_w, cls_b, dims["input"],
                           tuple(dims["hidden"]), dims["rep"],
                           dims["classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed checkpoint: {exc}")


def _vector(values, size: int, what: str) -> np.ndarray:
    v = np.array(values, dtype=np.float64)
    if v.shape != (size,):
        raise ValidationError(f"{what} has shape {v.shape}, expected ({size},)")
    return v
