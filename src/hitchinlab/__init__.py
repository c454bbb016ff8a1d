"""hitchinlab: numerics for rescaled Hitchin equations and their model geometries.

Submodules
----------
special   : Bessel K0/K1/K2, theta constants, modular lambda and inverse, lattices
painleve  : radial sinh-Gordon (Painleve III) boundary-value solver and profiles
fiducial  : local model fields near zeros and parabolic points, diagnostics
glue      : cutoff gluing of model metrics and exponential error measurement
toymodel  : four-punctured-sphere moduli space (special Kahler base, spectral
            torus, semiflat metric, BPS data, predicted metric correction)
lebrun    : circle-invariant reduction on T^2 x R+, decay law, metric difference
cli       : reproducible experiment runner
oracles   : independent routes for the tests, the acceptance gate and the
            demos; not loaded by the package
"""

__version__ = "0.1.0"

from . import special, painleve, fiducial, glue, toymodel, lebrun  # noqa: F401,E402
