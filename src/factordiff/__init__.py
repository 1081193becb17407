"""Dense real-matrix factorizations with derivatives and path tracking.

Three product maps over square float64 matrices -- orthogonal times upper
triangular, lower triangular times its transpose, and unit-lower times
diagonal times unit-upper -- each with a factorization kernel (the inverse
direction), a derivative in both the apply and solve directions, Newton
correction, predictor-corrector tracking along matrix families, and a seeded
verification suite that exercises every contract.
"""

# Each module's __all__ is the one list of its public names; the package
# republishes them all.
from . import core, errors, factor, frechet, matrixio, newton, verify
from .core import *
from .errors import *
from .factor import *
from .frechet import *
from .matrixio import *
from .newton import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, factor, frechet, newton, verify, matrixio, errors)
    for name in module.__all__
]
