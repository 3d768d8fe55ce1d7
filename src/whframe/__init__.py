"""Finite Weyl-Heisenberg (Gabor) systems on the cyclic group Z_L.

Decide tightness, construct tight generators from phase arrays, compute
canonical and alternate dual windows, and cross-check everything against
a brute-force oracle.

__all__ joins the __all__ lists of the seven modules star-imported below;
the oracle and the command-line front end stay in their own modules.
"""

from . import correlation, duality, errors, frame, lattice, synthesis, tightness
from .correlation import *
from .duality import *
from .errors import *
from .frame import *
from .lattice import *
from .synthesis import *
from .tightness import *

__version__ = "0.1.0"

__all__ = [name for module in (lattice, errors, correlation, frame, tightness, synthesis, duality)
           for name in module.__all__]
