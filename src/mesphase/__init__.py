"""mesphase: exact state algebra for pairs of d-level systems, d an odd prime.

Builds and verifies maximally entangled bases, the d+1 mutually unbiased
bases, center-of-mass/relative coordinate factorizations, and the phase-space
line states whose sums of entangled lattice points collapse to single-particle
product states.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

__version__ = "0.1.0"

from . import collective, errors, lines, mes, schwinger, states, verify
from .errors import *
from .states import *
from .schwinger import *
from .mes import *
from .collective import *
from .lines import *
from .verify import *

__all__ = ["__version__"] + [
    name for module in (errors, states, schwinger, mes, collective, lines, verify) for name in module.__all__
]
