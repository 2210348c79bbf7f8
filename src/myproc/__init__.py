"""myproc: a verification laboratory for the exponential functional
eta_t = int_0^t e^{2 B_s - B_t} ds and its matrix and tree analogues.

Submodules:
  specialfn   Macdonald function and its lambda-derivatives, multiplicities
  series      Toda / Calogero-Moser-Sutherland eigenfunction series (coefficient arrays), spherical limits
  paths       scalar path engine (Brownian paths as arrays, eta and its sample streams, Macdonald drift)
  matrixproc  triangular-group Brownian motion and solvable-model radial parts
  trees       exact rational Markov chains on trees and their flat limits
  stats       KS / generator / Markov-property / conditional-law tests
  experiments seeded named experiments; cli drives them
"""

from . import matrixproc, paths, series, specialfn, stats, trees  # noqa: F401

__version__ = "0.1.0"
