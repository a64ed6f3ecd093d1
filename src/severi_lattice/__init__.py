"""Exact lattice-polygon combinatorics for genus-one Severi varieties.

Layers, bottom to top:

- ``intmat``: arbitrary-precision integer matrices, Smith normal form and
  its homogeneous variant, both with unimodular certificates.
- ``lattices``: affine sublattices of Z^2 in canonical form, spans, indices,
  rotation, intermediate lattices, coordinates in a lattice's basis.
- ``polygons``: validated convex lattice polygons, boundary points, and,
  in a lattice's basis, interior counts by Pick's theorem, the lattice
  width by Gauss reduction and the interior classification; point scans
  kept as oracles.
- ``oracles``: literal recomputations that share no formula with the
  closed forms: the component count by testing each lattice's two
  conditions, and the lattice width by a direction scan.
- ``severi``: boundary profiles, component descriptors, the component
  count, and ``analyze``, which checks the count against the oracle.
- ``certificates``: the 2 x l normal matrix of a profile and the
  certificates read from it (signature, rank criterion); the only
  polygon-side module that imports ``intmat``.
- ``corpus`` / ``verify`` / ``cli``: enumeration, the cross-check battery,
  and the command-line front end.

The top level re-exports the quick-tour names (import the rest from its
module), each on first read (PEP 562): ``import severi_lattice`` loads
only ``errors``, and ``cli`` lists what each ``severi`` command loads.
"""

from .errors import DomainError, InvariantViolation, SeveriLatticeError

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "IntMat",
    "InvariantViolation",
    "LatticePolygon",
    "SeveriLatticeError",
    "analyze",
    "build_profile",
    "count_components",
    "snf",
]

# PEP 562: the module of each re-export, imported when the name is first read
_LAZY = {"IntMat": "intmat", "snf": "intmat", "LatticePolygon": "polygons",
         "analyze": "severi", "build_profile": "severi", "count_components": "severi"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
