"""Semi-dense coarse-to-fine image feature matching at desk scale.

The package holds what a matcher is built from: a numpy-backed autodiff
engine (`tensor`), parameter containers and layers (`module`), and the run
configuration (`config`).  The matcher itself, a deep-narrow CNN extractor,
attention on deep features, dual-softmax coarse matching on the 1/8 grid and
a per-axis regression head, is for now the benchmark's graph in
`bench/matcher.py`.
"""

from .tensor import Tensor, no_grad
from .config import Config

__all__ = ["Tensor", "no_grad", "Config"]

__version__ = "0.1.0"
