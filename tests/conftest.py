"""Shared fixtures and brute-force oracle helpers for the test suite.

The oracles here deliberately avoid the library's own fast paths: they
sample dense direction grids, solve small eigenproblems directly, or
integrate ODEs, so that closed-form code in the package is checked
against an independent computation.
"""

import math

import numpy as np
import pytest

from geostab.fields import (FieldModel, h2_field, h2_singular_field, s2_field,
                            s3_field)
from geostab.manifolds import HALF_PLANE, SPHERE2, SPHERE3, Euclidean


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_s2_points(rng, n, lat=1.2):
    """Sample chart points on the 2-sphere away from the poles."""
    phi = rng.uniform(-lat, lat, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [SPHERE2.point(np.array([p, t])) for p, t in zip(phi, theta)]


def random_h2_points(rng, n, x_range=(-2.0, 2.0), y_range=(0.2, 5.0)):
    x = rng.uniform(*x_range, size=n)
    y = rng.uniform(*y_range, size=n)
    return [HALF_PLANE.point(np.array([a, b])) for a, b in zip(x, y)]


def random_s3_points(rng, n, margin=0.35):
    psi = rng.uniform(margin, math.pi - margin, size=n)
    theta = rng.uniform(margin, math.pi - margin, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [SPHERE3.point(np.array([a, b, c])) for a, b, c in zip(psi, theta, phi)]


def random_points(manifold, rng, n):
    name = manifold.name
    if name == "s2":
        return random_s2_points(rng, n)
    if name == "h2":
        return random_h2_points(rng, n)
    if name == "s3":
        return random_s3_points(rng, n)
    if name.startswith("euclid"):
        coords = rng.uniform(-2.0, 2.0, size=(n, manifold.dim))
        return [manifold.point(c) for c in coords]
    raise ValueError(f"no sampler for manifold {name!r}")


def random_tangent(manifold, p, rng, scale=1.0):
    """Random tangent vector with g-norm of order ``scale``."""
    raw = rng.standard_normal(manifold.dim)
    v = manifold.tangent(p, raw)
    n = manifold.norm(v)
    if n < 1e-12:
        raw[0] += 1.0
        v = manifold.tangent(p, raw)
        n = manifold.norm(v)
    return manifold.tangent(p, v.comps * (scale / n))


def unit_tangent(manifold, p, rng):
    return random_tangent(manifold, p, rng, scale=1.0)


FIELD_FACTORIES = {
    "s2": s2_field,
    "h2": h2_field,
    "s3": s3_field,
}


def make_field(name, eps=1.0):
    if name == "h2-singular":
        return h2_singular_field()
    return FIELD_FACTORIES[name](eps)


def dense_directions(dim, n, rng=None):
    """Dense g-independent raw direction set for brute-force sweeps."""
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if rng is None:
        rng = np.random.default_rng(7)
    raw = rng.standard_normal((n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def g_unit_directions(manifold, p, n, rng=None):
    """Direction set normalized to unit g-norm at p."""
    g = manifold.metric(p)
    raw = dense_directions(manifold.dim, n, rng)
    norms = np.sqrt(np.einsum("ij,jk,ik->i", raw, g, raw))
    return raw / norms[:, None]


def brute_alpha(A, g, n=4000, rng=None):
    """Sampled cocoercivity constant: min over unit v of -<Av, v>_g / |Av|_g^2.

    Directions where Av = 0 do not constrain the constant and are skipped.
    Returns +inf when A annihilates every sampled direction.
    """
    dirs = dense_directions(A.shape[0], n, rng)
    best = math.inf
    for v in dirs:
        av = A @ v
        denom = float(av @ g @ av)
        if denom < 1e-20:
            continue
        num = -float(av @ g @ v)
        best = min(best, num / denom)
    return best


def brute_sigma(A, g, n=4000, rng=None):
    """Sampled inverse bound: max over unit-g v of |v|_g / |Av|_g."""
    dirs = g_unit_directions_from_metric(A.shape[0], g, n, rng)
    worst = 0.0
    for v in dirs:
        av = A @ v
        denom = math.sqrt(float(av @ g @ av))
        if denom < 1e-14:
            return math.inf
        worst = max(worst, 1.0 / denom)
    return worst


def g_unit_directions_from_metric(dim, g, n, rng=None):
    raw = dense_directions(dim, n, rng)
    norms = np.sqrt(np.einsum("ij,jk,ik->i", raw, g, raw))
    return raw / norms[:, None]


def brute_log_g_norm(A, g, n=4000, rng=None):
    """Sampled logarithmic g-norm: max over unit-g v of <Av, v>_g."""
    dirs = g_unit_directions_from_metric(A.shape[0], g, n, rng)
    return max(float((A @ v) @ g @ v) for v in dirs)


def linear_field(manifold, matrix, name="linear") -> FieldModel:
    """X(p) = matrix @ p on a Euclidean model, on coordinate stacks."""
    M = np.array(matrix, dtype=float)

    def func(c):
        return (M @ c[..., None])[..., 0]

    def jac(c):
        return np.broadcast_to(M, c.shape + c.shape[-1:])

    return FieldModel(manifold, func, jac, name=name)


def affine_field(manifold, p, a, nabla):
    """The field a + J(x - p) with J = nabla - Γ(p)·a, on coordinate
    stacks: X(p) = a and ∇X(p) = nabla."""
    a, p = np.asarray(a, dtype=float), np.asarray(p, dtype=float)
    J = np.asarray(nabla, dtype=float) - np.einsum(
        "ijk,k->ij", manifold.christoffels(p), a)
    return FieldModel(manifold, lambda c: a + (J @ (c - p)[..., None])[..., 0],
                      lambda c: np.broadcast_to(J, c.shape + c.shape[-1:]),
                      name="affine")
