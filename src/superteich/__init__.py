"""Decorated super-Teichmuller coordinates.

Modules:
  grassmann     finite-rank Grassmann algebra arithmetic
  superlinalg   (2|1)x(2|1) supermatrices and OSp(1|2)
  minkowski     super Minkowski space, spinors, standard position, lambda/mu invariants
  fatgraph_spin trivalent fatgraphs, orientation classes, spin structures
  decorated     coordinate charts, super Ptolemy flips, lifts, representations
"""

from .grassmann import GrassmannNumber

__version__ = "0.1.0"
