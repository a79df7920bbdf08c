"""Barrier construction, verification, and simulation for a fast
diffusion equation with type-II extinction.

The package builds matched sub/supersolution pairs from an outer
expansion in self-similar variables and an inner profile obtained by
shooting, verifies their differential-inequality sign verdicts over
explicit regions, and sandwiches a simulated radial solution between
them to extract the amplitude decay rate.
Names are imported from their submodules; the package itself loads none.
"""

__version__ = "0.1.0"
