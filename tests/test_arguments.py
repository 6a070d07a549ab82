"""Every positive numeric argument of the package is refused the same way.

One check (`geometry._number`) serves the walker, the spectrum, theta and
the batch runner: a bool, a string, NaN, an infinity and a value <= 0 are
refused, and so is a float where an integer is asked for.  Each refusal is
a ValueError that is neither SpectralError nor BrownianError, so a caller
that turns those two into records never swallows an argument error; spec
parameters raise DomainError, itself a ValueError.
"""

import functools
import math

import numpy as np
import pytest

from eigenwalk import _rng
from eigenwalk.brownian import (BrownianError, PathConfig,
                                mixed_eigenvalue_via_decay,
                                survival_probability)
from eigenwalk.geometry import DomainError, DomainSpec, build_domain
from eigenwalk.spectral import (SpectralError, assemble_laplacian,
                                solve_eigs, zeta_bound)
from eigenwalk.theta import (bessel_zeros, cube_escape, gamma_tail_outside,
                             interval_survival_images, mc_exit_probability,
                             theta, theta_bound_gamma,
                             theta_bound_reflection, theta_inverse)

REALS = [True, math.nan, math.inf, -1, 0, "1"]
INTEGERS = REALS + [2.5]
T_GRID = (0.3, 0.6, 0.9, 1.2)


@functools.cache
def mixed():
    """A 2 x 1 rectangle with Dirichlet left and right walls."""
    return build_domain(DomainSpec("rectangle", {"width": 2.0}, 16,
                                   "dirichlet", {"top": "neumann",
                                                 "bottom": "neumann"}))


def cfg(**kw):
    return PathConfig(**({"t_max": 1.2, "n_paths": 100, "dt": 0.03} | kw))


# name -> (call with the bad value, whether an integer is asked for)
ENTRY_POINTS = {
    "PathConfig.t_max": (lambda v: PathConfig(t_max=v, n_paths=100), False),
    "PathConfig.n_paths": (lambda v: PathConfig(t_max=1.0, n_paths=v), True),
    "PathConfig.dt": (lambda v: cfg(dt=v), False),
    "resolve_steps.horizon": (lambda v: cfg().resolve_steps(0.1, v), False),
    "mixed_eigenvalue_via_decay.t_grid": (
        lambda v: mixed_eigenvalue_via_decay(mixed(), cfg(), (0.3, 0.6, v)),
        False),
    "mixed_eigenvalue_via_decay.max_starts": (
        lambda v: mixed_eigenvalue_via_decay(mixed(), cfg(), T_GRID,
                                             max_starts=v), True),
    "mixed_eigenvalue_via_decay.fit_tol": (
        lambda v: mixed_eigenvalue_via_decay(mixed(), cfg(), T_GRID,
                                             fit_tol=v), False),
    "survival_probability.threads": (
        lambda v: survival_probability(mixed(), (1.0, 0.5), 0.1, cfg(),
                                       threads=v), True),
    "map_batches.threads": (lambda v: _rng.map_batches(abs, 3, v), True),
    "solve_eigs.k": (
        lambda v: solve_eigs(assemble_laplacian(mixed()), v), True),
    "zeta_bound.n": (lambda v: zeta_bound(v, 1.0), True),
    "zeta_bound.eps": (lambda v: zeta_bound(2, v), False),
    "theta.n": (lambda v: theta(v, 1.0), True),
    "theta.c": (lambda v: theta(2, v), False),
    "theta_inverse.n": (lambda v: theta_inverse(v, 0.5), True),
    "theta_inverse.p": (lambda v: theta_inverse(2, v), False),
    "bessel_zeros.k": (lambda v: bessel_zeros(0.0, v), True),
    "mc_exit_probability.n": (
        lambda v: mc_exit_probability(v, 4.0, 100), True),
    "mc_exit_probability.c": (
        lambda v: mc_exit_probability(2, v, 100), False),
    "mc_exit_probability.n_paths": (
        lambda v: mc_exit_probability(2, 4.0, v), True),
    "mc_exit_probability.threads": (
        lambda v: mc_exit_probability(2, 4.0, 100, threads=v), True),
    "theta_bound_gamma.eps": (lambda v: theta_bound_gamma(2, 100.0, v), False),
    "theta_bound_reflection.c": (lambda v: theta_bound_reflection(2, v),
                                 False),
    "cube_escape.c": (lambda v: cube_escape(2, v), False),
    "gamma_tail_outside.c": (lambda v: gamma_tail_outside(2, v), False),
    "interval_survival_images.c": (lambda v: interval_survival_images(v),
                                   False),
}

SPEC_PARAMETERS = {
    "resolution": (lambda v: DomainSpec("disk", {}, v), True),
    "disk.radius": (lambda v: DomainSpec("disk", {"radius": v}, 32), False),
    "octopus.tentacle_count": (
        lambda v: DomainSpec("octopus", {"tentacle_count": v}, 32), True),
}


def cases(table):
    return [pytest.param(call, value, id=f"{name}={value!r}")
            for name, (call, integer) in table.items()
            for value in (INTEGERS if integer else REALS)]


@pytest.mark.parametrize("call, value", cases(ENTRY_POINTS))
def test_bad_number_raises_value_error(call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert not isinstance(info.value, (SpectralError, BrownianError))


@pytest.mark.parametrize("call, value", cases(SPEC_PARAMETERS))
def test_bad_spec_number_raises_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


def test_good_numbers_keep_their_bits():
    """A numpy scalar or an int where a real is asked is read as the float
    of the same value, so results do not depend on the type passed."""
    assert theta(np.int64(2), np.float64(1.5)) == theta(2, 1.5)
    assert theta(2, 3) == theta(2, 3.0)
    assert zeta_bound(2, np.float32(0.5)) == zeta_bound(2, 0.5)
