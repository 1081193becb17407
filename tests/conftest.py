"""Shared random-input generators for the test suite (all seeded by callers)."""

from dataclasses import replace

import numpy as np
from hypothesis import settings

from factordiff import DEFAULT_TOLERANCES, hs_norm, in_domain_p

# Property tests replay the same examples on every run (a failure reproduces
# without a saved database), and no example fails for running slowly on a
# busy host.
settings.register_profile("factordiff", derandomize=True, deadline=None, database=None)
settings.load_profile("factordiff")


def random_square(rng, n):
    return rng.uniform(-1.0, 1.0, (n, n))


def random_invertible(rng, n, margin=1e-8):
    while True:
        a = random_square(rng, n)
        if np.linalg.svd(a, compute_uv=False)[-1] > margin * (1.0 + hs_norm(a)):
            return a


def random_rank_deficient(rng, n):
    k = int(rng.integers(1, n))
    return rng.uniform(-1.0, 1.0, (n, k)) @ rng.uniform(-1.0, 1.0, (k, n))


def random_spd(rng, n, shift=1e-3):
    m = random_square(rng, n)
    s = m.T @ m
    return 0.5 * (s + s.T) + shift * np.eye(n)


def random_symmetric(rng, n):
    e = random_square(rng, n)
    return 0.5 * (e + e.T)


def random_diag_shifted(rng, n):
    """Square input shifted by sqrt(n) I: the eigenvalues of the uniform part
    lie within about sqrt(n / 3) of zero, so every leading block stays well
    conditioned at any n."""
    return random_square(rng, n) + np.sqrt(n) * np.eye(n)


def random_in_p(rng, n, margin=1e-2):
    gate = replace(DEFAULT_TOLERANCES, singularity_tol=margin)
    while True:
        a = random_square(rng, n)
        if in_domain_p(a, gate):
            return a
