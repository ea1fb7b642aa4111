"""Exact surgery calculus for 4-manifold geography.

Characteristic numbers of 4-manifolds assembled from blow-ups, branched
covers, surface resolutions, symplectic fiber sums and knot surgery, tracked
exactly, either as rational numbers or as polynomial functions of the
construction parameter n.
"""
