"""Gaussian measures, orthonormal polynomial bases, and projections on
parametrized varieties.  Exports exactly the names in the modules' ``__all__``."""

from . import approxlemma, orthobasis, polyring, quadrature, variety
from .approxlemma import *  # noqa: F403
from .orthobasis import *  # noqa: F403
from .polyring import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .variety import *  # noqa: F403

__all__ = (approxlemma.__all__ + orthobasis.__all__ + polyring.__all__
           + quadrature.__all__ + variety.__all__)

__version__ = "0.1.0"
