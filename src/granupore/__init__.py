"""Non-isochoric granular rheology with pore-gas fluidization.

A numpy/scipy toolkit for threshold granular constitutive laws written as a
yield function Z(phi, I) and a dilatancy function f(phi, p, I): built-in
Drucker-Prager and mu(I) families (with and without dilatancy angles), a
quadrature route deriving f from any Z, numerical verification of the
dissipation / consistency / stability / equilibrium conditions, the
extended spectral symbol of the fluidized system, and desk-scale box and
column simulators.

Each submodule's ``__all__`` is its public API, and the package re-exports
those of ``materials``, ``gas``, ``rheology``, ``conditions``, ``stability``
and ``simulate``; ``config``, ``quadrature`` and ``cli`` are imported by name.
"""

__version__ = "0.1.0"

from .materials import *
from .gas import *
from .rheology import *
from .conditions import *
from .stability import *
from .simulate import *
