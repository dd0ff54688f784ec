"""Soft geometric block models on the torus: sampling, spectral clustering,
and numerical checks of the limiting spectrum.

Every public name of kernels, model, spectral, theory and harness (each
module's __all__) is a name of the package."""

from .kernels import *
from .model import *
from .spectral import *
from .theory import *
from .harness import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
