"""Finite-dimensional simulator for detection-conditioned quantum measurements.

The library models generalized observables: a standard quantum observable
extended by a no-registration outcome reported when the measured object
escapes detection. From there it builds outcome probabilities (overall,
conditional and detection), effect operators forming state-indexed POV
measures, the generalized post-measurement state update, measurement-operator
families with their nonselective mixtures, an object-apparatus coupling model
whose partial trace reproduces that mixture, and a deterministic Monte Carlo
sampling engine with a scenario-file CLI.
"""

from . import apparatus, errors, linalg, measurement, model, sampling, scenario
from .apparatus import *
from .errors import *
from .linalg import *
from .measurement import *
from .model import *
from .sampling import *
from .scenario import *

__version__ = "0.1.0"

# each module lists its exports in its own __all__, next to their definitions
__all__ = [name for module in (apparatus, errors, linalg, measurement, model, sampling, scenario)
           for name in module.__all__]
