"""Parameter registry and Adadelta updates."""

import dataclasses
import math

import numpy as np

from .tensor import Tensor

# Adadelta's decay rate and conditioning constant (Zeiler 2012, arXiv 1212.5701)
RHO = 0.95
EPS = 1e-6


def glorot_uniform(shape, rng) -> np.ndarray:
    """Uniform(-a, a) of the 2-D `shape` (fan_in, fan_out), with
    a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def named_tensors(bundle, prefix: str = ""):
    """(name, tensor) for every Tensor field of the parameter dataclass
    `bundle`, in field order; a field holding a nested bundle contributes
    its own tensors named `field/inner`.  A bundle's parameters are exactly
    its Tensor fields, so none can be left out of training or of the
    checkpoint."""
    for field in dataclasses.fields(bundle):
        value = getattr(bundle, field.name)
        if isinstance(value, Tensor):
            yield prefix + field.name, value
        elif dataclasses.is_dataclass(value):
            yield from named_tensors(value, f"{prefix}{field.name}/")


class ParameterStore:
    """Named trainable tensors plus their per-parameter Adadelta state.

    Iteration order is lexicographic by name so that update order (and
    hence any floating-point effects) never depends on registration order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._square_avg: dict[str, np.ndarray] = {}
        self._accum_delta: dict[str, np.ndarray] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grads(self) -> None:
        for _, p in self.items():
            p.zero_grad()

    def adadelta_step(self) -> None:
        """Apply one Adadelta update from the accumulated gradients, with
        Zeiler's constants RHO and EPS and no learning rate:

        square_avg <- rho * square_avg + (1 - rho) * g^2
        delta       = g * sqrt(accum_delta + eps) / sqrt(square_avg + eps)
        accum_delta <- rho * accum_delta + (1 - rho) * delta^2
        param      -= delta

        Gradients are zeroed afterwards.  A parameter the loss never touched
        (grad is None) counts as zero gradient.  A non-finite gradient aborts
        the step, before any parameter moves, with the offending name.
        """
        grads = {}
        for name, p in self.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            grads[name] = g
        # the accumulators start at zero with the first step, so a model that
        # only predicts never allocates them: np.zeros writes its pages when
        # malloc hands back reused memory, and a full model's two take 95 MB
        if not self._square_avg:
            self._square_avg = {name: np.zeros(p.data.shape) for name, p in self.items()}
            self._accum_delta = {name: np.zeros(p.data.shape) for name, p in self.items()}
        for name, p in self.items():
            g = grads[name]
            sq = self._square_avg[name]
            acc = self._accum_delta[name]
            sq *= RHO
            sq += (1.0 - RHO) * g * g
            delta = g * np.sqrt(acc + EPS) / np.sqrt(sq + EPS)
            acc *= RHO
            acc += (1.0 - RHO) * delta * delta
            p.data -= delta
        self.zero_grads()
