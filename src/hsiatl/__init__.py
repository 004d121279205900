"""Hyperspectral image classification with a spatial-spectral transformer,
uncertainty/diversity active learning, and distribution-guided transfer.

The package is organized around small, testable layers:

- ``autodiff``   float64 tensors with tape-based reverse-mode differentiation
- ``optim``      Adam with inverse-time learning-rate decay over one parameter vector
- ``data``       cube/label binary formats, window extraction, splits, synthesis
- ``model``      the transformer classifier and its forward operations
- ``metrics``    confusion-matrix scores (overall/average accuracy, kappa)
- ``queries``    active-learning acquisition strategies
- ``transfer``   maximum mean discrepancy and layer-freezing transfer
- ``training``   minibatch training loop and the active-learning driver
- ``checkpoint`` binary model serialization
- ``cli``        command-line entry points
"""

from hsiatl.autodiff import Tape, Tensor
from hsiatl.data import HsiCube, LabelMap, SplitManifest, synth_cube
from hsiatl.model import SstConfig, SstModel, init_model

__all__ = [
    "Tape",
    "Tensor",
    "HsiCube",
    "LabelMap",
    "SplitManifest",
    "synth_cube",
    "SstConfig",
    "SstModel",
    "init_model",
]

__version__ = "0.1.0"
