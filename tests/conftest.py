"""Shared random-input generators for the test suite (all seeded by callers)."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import settings

from factordiff import DEFAULT_TOLERANCES, hs_norm, in_domain_p

# Tests that start a fresh interpreter import factordiff from this checkout
# as well: pytest's pythonpath setting reaches only the running process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

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


def shifted_pair(rng, n):
    """The ends of the benchmark's track-large family for QR and LDU: two
    draws g / sqrt(n) shifted by one past their largest 2-norm."""
    g0, g1 = rng.standard_normal((2, n, n))
    shift = 1.0 + max(np.linalg.norm(g0, 2), np.linalg.norm(g1, 2)) / np.sqrt(n)
    return g0 / np.sqrt(n) + shift * np.eye(n), g1 / np.sqrt(n) + shift * np.eye(n)


def random_in_p(rng, n, margin=1e-2):
    gate = replace(DEFAULT_TOLERANCES, singularity_tol=margin)
    while True:
        a = random_square(rng, n)
        if in_domain_p(a, gate):
            return a


def recording(family):
    """family as an evaluate that appends each t it is called with to seen."""
    seen = []

    def evaluate(t):
        seen.append(t)
        return family(t)

    return evaluate, seen
