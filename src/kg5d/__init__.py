"""kg5d: numerics for 5D foliated wave operators and hydrogenic sums.

Subpackages by theme:

* ``numerics``  - quadrature, series summation, root finding, FD stencils
* ``specfun``   - Laguerre/Whittaker evaluations, asymptotics
* ``spectrum``  - hydrogenic level formulas and quantization conditions
* ``canonical`` - level densities and the canonical sum Z_c + Z_d
* ``geometry``  - foliated metric, Christoffels, operator identities
* ``reduction`` - light-cone Schroedinger/Fokker-Planck evolution checks
* ``cli``       - command-line entry point (``kg5d``)

Importing the package loads none of them: ``from kg5d import geometry`` (or
``import kg5d.geometry``) loads a subpackage and what it needs, so a command
pays only for the modules it uses.
"""

from .errors import Kg5dError

__all__ = [
    "canonical",
    "geometry",
    "numerics",
    "reduction",
    "specfun",
    "spectrum",
    "Kg5dError",
]

__version__ = "0.1.0"
