"""Numeric tolerances, budgets and seeded draws shared across the pipeline.

All comparisons against zero in the geometric stages go through a named
field here so that the strict profile can tighten everything in one place.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # integrator
    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 200000
    t_budget: float = 200.0

    # limit classification
    capture_radius: float = 1e-4
    speed_tol_factor: float = 1e-6  # times a sampled field magnitude scale

    # critical point search
    newton_tol: float = 1e-10
    seed_density: int = 9  # Newton seeds per axis

    # boundary classification
    margin_tol: float = 1e-6
    face_samples: int = 3  # transversality samples per face, per axis
    isolation_samples_per_face: int = 2

    # connection counting
    delta_u: float = 1e-3      # unstable offset of orbit seeds
    n_dir_seeds: int = 64      # initial directions on the unstable sphere
    dir_tol: float = 1e-12     # bisection resolution on directions

    # perturbation and certification
    epsilon: float = 1e-3
    cert_lambda_steps: int = 10
    cert_t_budget: float = 60.0
    verify_samples: int = 11   # Lyapunov lattice samples per axis
    strict_decrease_tol: float = 1e-10


DEFAULT = Tolerances()

STRICT = replace(
    DEFAULT,
    rtol=1e-11,
    atol=1e-14,
    n_dir_seeds=128,
    dir_tol=1e-13,
)

PROFILES = {"default": DEFAULT, "strict": STRICT}


def profile(name):
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown tolerance profile {name!r}") from None


def normals(key, n):
    """``n`` standard-normal draws seeded by ``key``, a non-negative int or
    a str.  The standard library's generator seeds a str from all of its
    bytes, not from its hash, so the draws do not depend on PYTHONHASHSEED;
    they are the same for a given CPython version."""
    gauss = random.Random(key).gauss
    return [gauss(0.0, 1.0) for _ in range(n)]
