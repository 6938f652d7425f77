"""Exact and numerical toolkit for superminimal almost complex 2-spheres in S^6.

The package constructs holomorphic superhorizontal curves in the 5-quadric,
pushes them down the twistor fibration, builds their harmonic sequences in
exact arithmetic over Q(i, sqrt2, sqrt3, sqrt5), and verifies the classical
invariants: cross-product tables, reality and norm-product identities,
singularity types, osculating-curve degrees and areas.

Importing the package loads no numpy: the exact layers run on Python
ints, ``verify``'s float audit on complex numbers, and the modules that
make arrays import numpy where they make them.  It does ask OpenBLAS for
one thread unless ``OPENBLAS_NUM_THREADS`` is already set, so that numpy,
once loaded, starts no OpenBLAS worker: supermin's commands make no BLAS
call, and an idle worker spins on a second CPU.  A caller who wants threaded BLAS
for their own work sets the variable, or imports numpy before supermin.
"""

import os

# The commands make no BLAS call; an OpenBLAS worker thread would only spin.
# Set before any command can load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .field import AlgScalar  # noqa: E402
from .poly import BiPoly, Poly, RationalFn  # noqa: E402

__all__ = ["AlgScalar", "Poly", "BiPoly", "RationalFn"]

__version__ = "0.1.0"
