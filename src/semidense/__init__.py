"""Semi-dense coarse-to-fine image feature matching at desk scale.

A small numpy-backed autodiff engine drives a deep-narrow convolutional
extractor, attention-based correlation transfer on deep features, dual-softmax
coarse matching on the 1/8 grid, and a bidirectional per-axis regression head
for subpixel refinement, trainable end-to-end on synthetic homography pairs.
"""

from .tensor import Tensor, no_grad
from .config import Config

__all__ = ["Tensor", "no_grad", "Config"]

__version__ = "0.1.0"
