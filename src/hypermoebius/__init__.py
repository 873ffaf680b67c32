"""Moebius geometry over the double (split-complex) and dual numbers.

Ring arithmetic, projective lines and their canonical point classes,
Moebius transformations, the classification of continuous one-parameter
matrix subgroups over the two rings, and numerically verifiable orbit
equations.

Import the modules by name, e.g. ``from hypermoebius import moebius``; the
package root re-exports nothing, so importing one module loads only what it
needs.
"""

__version__ = "0.1.0"
