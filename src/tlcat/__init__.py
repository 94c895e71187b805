"""Exact symbolic computation in diagram categories of planar matchings:
braiding and twist structure, fusion of modules with monodromy analysis at
generic and root-of-unity parameters, and Yang-Baxter integrability for
the ordinary and dilute families.

All arithmetic is exact (Laurent polynomials in the parameter s, rational
points, or cyclotomic fields); no floating-point appears on any
verification path.

Each submodule's ``__all__`` is the one list of its public names, and the
package gathers them all, so every public name of ``tlcat.<module>`` is
also ``tlcat.<name>``.  Two modules stay out: ``cli`` imports the package,
and ``cyclotomic`` is imported lazily, by the first root-of-unity
``CoeffDomain``, since a generic run never uses it.  Each function or
class is exported only by the module that defines it, and no constant by
two, so no star import below shadows another.
"""

__version__ = "0.1.0"

# Each module imports what it needs, so any order binds the same names; but
# the load order sets the memory layout, and a strict dependency order read
# 2% slower on the roots-cyclotomic workload, so this is the order the
# package has always loaded its modules in.
from .diagram import *
from .morphism import *
from .scalar import *
from .braid import *
from .twist import *
from .standard import *
from .fusion import *
from .dilute import *
from .integrable import *
from .render import *
from .report import *
from .linalg import *

__all__ = [name for name in dir() if not name.startswith("_")]
