"""Deterministic low-discrepancy sampling: Halton sequences and unit directions."""

from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def radical_inverse(n: int, base: int) -> float:
    """Van der Corput radical inverse of ``n`` in the given base."""
    inv = 0.0
    denom = 1.0
    while n > 0:
        n, digit = divmod(n, base)
        denom *= base
        inv += digit / denom
    return inv


def halton(count: int, dim: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points in (0, 1)^dim, starting at index ``start``.

    Index 0 (the origin) is skipped by default.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton sampling supports up to {len(_PRIMES)} dimensions")
    out = np.empty((count, dim))
    for k in range(count):
        for j in range(dim):
            out[k, j] = radical_inverse(start + k, _PRIMES[j])
    return out


def unit_directions(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic, roughly uniform unit vectors; ``seed`` shifts the sequence.

    Dimensions one to three map Halton points onto the sphere; higher
    dimensions fall back to seeded Gaussian normalisation.
    """
    start = 1 + max(seed, 0)
    if dim == 1:
        d = np.ones((count, 1))
        d[1::2, 0] = -1.0
        return d
    if dim == 2:
        theta = 2.0 * np.pi * halton(count, 1, start=start)[:, 0]
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        u = halton(count, 2, start=start)
        z = 2.0 * u[:, 0] - 1.0
        phi = 2.0 * np.pi * u[:, 1]
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)
