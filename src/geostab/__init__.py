"""Step-size bounds and non-expansivity checks for geodesic Euler
integrators on constant-curvature manifolds.

The API lives in the submodules (``geostab.manifolds``, ``geostab.fields``,
``geostab.constants``, ``geostab.bounds``, ...); import names from there.
"""

__version__ = "0.1.0"
