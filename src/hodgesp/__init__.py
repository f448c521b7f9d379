"""Signal processing on simplicial and cell complexes via Hodge theory.

Build complexes from vertices, edges, triangles, and polygon cells; take
incidence matrices, Hodge Laplacians, and the Dirac operator; decompose
signals into gradient, curl, and harmonic parts; filter, sample, and
reconstruct them; model their time evolution; and infer which triangles a
set of observed flows wants filled.
"""

from . import (complexes, dictionaries, filters, inference, sampling,
               spectral, timeseries)
from .complexes import *  # noqa: F401,F403
from .dictionaries import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .timeseries import *  # noqa: F401,F403

__version__ = "0.1.0"

# The modules' own lists in module order, each name once (lambda_max is in
# complexes and filters); io and cli stay out.
__all__ = list(dict.fromkeys(
    name for module in (complexes, dictionaries, filters, inference,
                        sampling, spectral, timeseries)
    for name in module.__all__))
