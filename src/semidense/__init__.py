"""Semi-dense coarse-to-fine image feature matching at desk scale.

The package holds a numpy-backed autodiff engine (`tensor`), parameter
containers and layers (`module`), the run configuration (`config`), and the
matcher built from them (`model`): a deep-narrow CNN extractor, attention on
deep features, gated injection, dual-softmax coarse matching on the 1/8 grid
and a per-axis regression head, with its loss.  `matching` selects the
coarse matches and maps them to pixels.  The benchmark still runs its own
copy of the same graph, `bench/matcher.py`, until it imports these modules.
They are not imported here: the benchmark's `setup_s` times `import semidense`.
"""

from .tensor import Tensor, no_grad
from .config import Config

__all__ = ["Tensor", "no_grad", "Config"]

__version__ = "0.1.0"
