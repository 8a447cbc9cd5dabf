"""kummerlab: cohomological and dynamical invariants of surface automorphisms.

The package has four mathematical layers and a command line harness:

- :mod:`kummerlab.lattice_algebra`: exact integer linear algebra on
  cohomology lattices (characteristic polynomials, dynamical degrees,
  Salem classification, isometry splitting, rank-2 form analysis).
- :mod:`kummerlab.torus_kummer`: exact dynamics of linear automorphisms of
  a product of elliptic curves and its sign-involution (Kummer) quotient.
- :mod:`kummerlab.wehler_dynamics`: numerical dynamics of (2,2,2) surfaces
  in (P1)^3 via the three fiberwise involutions.
- :mod:`kummerlab.blanc_cremona`: plane Cremona involutions fixing a cubic
  curve pointwise, and their compositions.
"""

__version__ = "0.1.0"
