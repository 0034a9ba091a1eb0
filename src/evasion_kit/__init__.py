"""Evasion path analysis for mobile sensor networks.

Given sensor tracks over a disk with a sensed fence, this package locates the
times at which coverage topology changes, tracks uncovered components through
the resulting zigzag of fibers and cobordisms, and computes the exact inverse
limit whose cardinality lower-bounds the number of evasion path classes. A
boundary-only pipeline rebuilds the same diagram from boundary components and
the complement components of the covered region, witness extraction
certifies actual evasion paths, and a brute-force reachability oracle
cross-checks everything.

The names live in the submodules (evasion_kit.analysis, evasion_kit.scenario,
...), which importing the package loads.
"""

from . import (analysis, errors, limit, planar_homology, rasterize, render,
               scenario, zigzag)

__version__ = "0.1.0"

__all__ = ["__version__"]
