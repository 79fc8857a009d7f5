"""Contrastive and classical losses for implicit-feedback recommendation,
plus closed-form linear recommenders and executable checks of the
inequalities and equivalences that relate them.

Each module names its public objects in its own ``__all__``; the package
exports the union of those lists.
"""

from . import checkpoint, data, linear, losses, metrics, mf, sampling, synthetic, verify
from .checkpoint import *
from .data import *
from .linear import *
from .losses import *
from .metrics import *
from .mf import *
from .sampling import *
from .synthetic import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (checkpoint, data, linear, losses, metrics, mf, sampling, synthetic, verify)
    for name in module.__all__
] + ["__version__"]
