"""Every numeric argument of the package is refused the same way.

One check (`geometry._number`) serves the spec readers, the domain, the
walker, the spectrum, theta and the batch runner: a bool, a string, NaN,
an infinity, a real too large for a float and a value out of range are
refused, and so is a float where an integer is asked for.  Each refusal
is a ValueError that is neither SpectralError nor BrownianError, so a
caller that turns those two into records never swallows an argument
error; spec parameters and a domain's spacing raise DomainError, itself
a ValueError.  A guard keeps every int or float parameter of the public
API in one of the tables here, or exempt with a reason.
"""

import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

import eigenwalk
from eigenwalk import _rng, brownian, geometry, spectral
from eigenwalk import theta as theta_module
from eigenwalk.brownian import (BrownianError, PathConfig, feynman_kac,
                                mixed_eigenvalue_via_decay,
                                survival_probability)
from eigenwalk.geometry import (DomainError, DomainSpec, GridDomain,
                                build_domain, extract_level_set)
from eigenwalk.spectral import (SpectralError, assemble_laplacian,
                                heat_semigroup, solve_eigs, survival_profile,
                                zeta_bound)
from eigenwalk.theta import (bessel_zeros, cube_escape, gamma_tail_outside,
                             interval_survival_images, mc_exit_probability,
                             theta, theta_bound_gamma,
                             theta_bound_reflection, theta_inverse)

BIG = 10**400  # a real too large for a float
REALS = [True, math.nan, math.inf, -1, 0, "1", BIG]
INTEGERS = [True, math.nan, math.inf, -1, 0, "1", 2.5]
T_GRID = (0.3, 0.6, 0.9, 1.2)


@functools.cache
def mixed():
    """A 2 x 1 rectangle with Dirichlet left and right walls."""
    return build_domain(DomainSpec("rectangle", {"width": 2.0}, 16,
                                   "dirichlet", {"top": "neumann",
                                                 "bottom": "neumann"}))


@functools.cache
def square():
    """The unit square at resolution 16, Dirichlet walls."""
    return build_domain(DomainSpec("rectangle", {}, 16))


@functools.cache
def square_modes():
    """The square's lowest two Dirichlet modes (dense route)."""
    return solve_eigs(assemble_laplacian(square(), "dirichlet"), 2)


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
    "mixed_eigenvalue_via_decay.threads": (
        lambda v: mixed_eigenvalue_via_decay(mixed(), cfg(), T_GRID,
                                             threads=v), True),
    "survival_probability.threads": (
        lambda v: survival_probability(mixed(), (1.0, 0.5), 0.1,
                                       cfg(dt=0.01), threads=v), True),
    "feynman_kac.threads": (
        lambda v: feynman_kac(square(), square_modes(), (0.5, 0.5), 0.1,
                              cfg(dt=0.01), threads=v), True),
    "map_batches.threads": (lambda v: _rng.map_batches(abs, 3, v), True),
    "solve_eigs.k": (
        lambda v: solve_eigs(assemble_laplacian(mixed()), v), True),
    "solve_eigs.residual_tol": (
        lambda v: solve_eigs(assemble_laplacian(mixed()), 2,
                             residual_tol=v), False),
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
    "theta_bound_gamma.n": (lambda v: theta_bound_gamma(v, 100.0, 1.0),
                            True),
    "theta_bound_gamma.c": (lambda v: theta_bound_gamma(2, v, 1.0), False),
    "theta_bound_gamma.eps": (lambda v: theta_bound_gamma(2, 100.0, v), False),
    "theta_bound_reflection.n": (lambda v: theta_bound_reflection(v, 10.0),
                                 True),
    "theta_bound_reflection.c": (lambda v: theta_bound_reflection(2, v),
                                 False),
    "cube_escape.n": (lambda v: cube_escape(v, 4.0), True),
    "cube_escape.c": (lambda v: cube_escape(2, v), False),
    "gamma_tail_outside.n": (lambda v: gamma_tail_outside(v, 4.0), True),
    "gamma_tail_outside.c": (lambda v: gamma_tail_outside(2, v), False),
    "interval_survival_images.c": (lambda v: interval_survival_images(v),
                                   False),
}

SPEC_PARAMETERS = {
    "resolution": (lambda v: DomainSpec("disk", {}, v), True),
    "disk.radius": (lambda v: DomainSpec("disk", {"radius": v}, 32), False),
    "octopus.tentacle_count": (
        lambda v: DomainSpec("octopus", {"tentacle_count": v}, 32), True),
    "GridDomain.h": (
        lambda v: GridDomain("h", v, (0.0, 0.0), np.ones((12, 12), bool), 0),
        False),
}


def cases(table):
    return [pytest.param(call, value, name.split(".")[-1],
                         id=f"{name}={label(value)}")
            for name, (call, integer) in table.items()
            for value in (INTEGERS if integer else REALS)]


def label(value):
    return "10**400" if value is BIG else repr(value)


@pytest.mark.parametrize("call, value, name", cases(ENTRY_POINTS))
def test_bad_number_raises_value_error(call, value, name):
    """Refused by the check of that argument, which names it (the horizon
    as a time), not by another check the call makes first."""
    with pytest.raises(ValueError) as info:
        call(value)
    assert not isinstance(info.value, (SpectralError, BrownianError))
    assert {"horizon": "time"}.get(name, name) in str(info.value)


@pytest.mark.parametrize("call, value, name", cases(SPEC_PARAMETERS))
def test_bad_spec_number_raises_domain_error(call, value, name):
    with pytest.raises(DomainError, match=name):
        call(value)


def test_good_numbers_keep_their_bits():
    """A numpy scalar or an int where a real is asked is read as the float
    of the same value, so results do not depend on the type passed."""
    assert theta(np.int64(2), np.float64(1.5)) == theta(2, 1.5)
    assert theta(2, 3) == theta(2, 3.0)
    assert zeta_bound(2, np.float32(0.5)) == zeta_bound(2, 0.5)


# ---------------------------------------------------------------------------
# arguments with a range of their own


def phi(mode):
    """The square's computed mode at its centre node (0.5, 0.5), where
    bilinear interpolation reads the node value exactly."""
    return float(square_modes().eigenfields[mode][8, 8])


def sine_level_set(eta):
    """The level set of sin(pi x) sin(pi y) on the square, which peaks at
    exactly 1 on the centre node."""
    x, y = square().node_xy(*np.indices(square().shape))
    return extract_level_set(square(), np.where(
        square().mask, np.sin(math.pi * x) * np.sin(math.pi * y), 0.0), eta)


def same_as_least_positive_time(evolve):
    """exp(-lam t) is exactly 1 at t = 5e-324, a time every version of the
    package accepts, so t = 0 must give its bits."""
    now, tiny = evolve(0), evolve(5e-324)
    return (now.t == 0.0 and np.array_equal(now.field, tiny.field)
            and now.truncation_bound == tiny.truncation_bound)


# name -> (call with the value, whether an integer is asked for, least, most,
# the edge value, a check of the edge value's result); least None asks for
# a positive value.  The names in SPEC_BOUNDED raise DomainError.
BOUNDED = {
    "DomainSpec.resolution": (
        lambda v: build_domain(DomainSpec("disk", {}, v)), True, 16,
        math.inf, 16, lambda dom: dom.n_active == 193),
    "PathConfig.n_paths": (
        lambda v: PathConfig(t_max=1.0, n_paths=v), True, 100, math.inf, 100,
        lambda c: c.n_paths == 100),
    "PathConfig.seed": (
        lambda v: cfg(seed=v), True, 0, math.inf, 0,
        lambda c: c == cfg()),
    "survival_probability.t": (
        lambda v: survival_probability(square(), (0.5, 0.5), v, cfg()),
        False, 0, math.inf, 0, lambda e: (e.mean, e.stderr) == (1.0, 0.0)),
    "feynman_kac.t": (
        lambda v: feynman_kac(square(), square_modes(), (0.5, 0.5), v,
                              cfg()),
        False, 0, math.inf, 0,
        lambda r: r.mean == r.exact == phi(0) and r.stderr == 0.0),
    "feynman_kac.mode_index": (
        lambda v: feynman_kac(square(), square_modes(), (0.5, 0.5), 0,
                              cfg(), mode_index=v), True, 0, 1, 1,
        lambda r: r.mean == r.exact == phi(1)),
    "heat_semigroup.t": (
        lambda v: heat_semigroup(square_modes(), np.ones((17, 17)), v),
        False, 0, math.inf, 0, lambda _: same_as_least_positive_time(
            lambda t: heat_semigroup(square_modes(), np.ones((17, 17)), t))),
    "survival_profile.t": (
        lambda v: survival_profile(square_modes(), v), False, 0, math.inf, 0,
        lambda _: same_as_least_positive_time(
            lambda t: survival_profile(square_modes(), t))),
    "extract_level_set.eta": (
        sine_level_set, False, None, 1, 1,
        lambda geo: geo.level_eta == 1.0 and geo.superlevel_mask.sum() == 1
        and len(geo.polylines) == 1
        and np.array_equal(geo.polylines[0], [[0.5, 0.5]])),
    "bessel_zeros.nu": (
        lambda v: bessel_zeros(v, 4), False, -0.5, math.inf, -0.5,
        lambda z: np.array_equal(z, (np.arange(1, 5) - 0.5) * math.pi)),
    "solve_eigs.seed": (
        lambda v: solve_eigs(assemble_laplacian(mixed()), 2, seed=v), True,
        0, math.inf, 0, lambda res: res.k == 2),
    "mc_exit_probability.seed": (
        lambda v: mc_exit_probability(2, 4.0, 1000, seed=v, dt_factor=0.1),
        True, 0, math.inf, 0,
        lambda e: (e.p, e.stderr) == (0.6169613972583975,
                                       0.014120912386531776)),
    "mc_exit_probability.dt_factor": (
        lambda v: mc_exit_probability(2, 4.0, 1000, dt_factor=v), False,
        None, 0.1, 0.1,
        lambda e: (e.p, e.stderr) == (0.6169613972583975,
                                       0.014120912386531776)),
}
SPEC_BOUNDED = {"DomainSpec.resolution"}


def refused(name):
    """True, False, NaN, both infinities, a string, one step past each
    bound and, for an integer, a value between two integers."""
    _, integer, least, most = BOUNDED[name][:4]
    low = 0 if least is None else (
        least - 1 if integer else math.nextafter(least, -math.inf))
    high = [most + 1 if integer else math.nextafter(most, math.inf)
            ] if most < math.inf else []
    inner = [(least or 0) + 0.5] if integer else []
    return [True, False, math.nan, math.inf, -math.inf, "1", low, *high,
            *inner]


@pytest.mark.parametrize("name", BOUNDED)
def test_bounded_edge_is_accepted(name):
    """The edge value of each range is taken and gives the same result as
    before the range moved into _number."""
    call, _, _, _, edge, check = BOUNDED[name]
    assert check(call(edge))


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name in BOUNDED for value in refused(name)])
def test_bounded_refusal(name, value):
    """Refused before any solve or walk: a plain ValueError, or a
    DomainError for a spec's resolution."""
    with pytest.raises(ValueError) as info:
        BOUNDED[name][0](value)
    want = DomainError if name in SPEC_BOUNDED else ValueError
    assert type(info.value) is want


# ---------------------------------------------------------------------------
# the guard


OUTPUTS = (eigenwalk.ThetaValue, spectral.HeatState, brownian.PathEstimate,
           brownian.FeynmanKacReport, brownian.MixedDecayReport)
EXEMPT = {
    **{f"{cls.__name__}.{f.name}": "an output field, made by the package"
       for cls in OUTPUTS for f in dataclasses.fields(cls)
       if getattr(f.type, "__name__", f.type) in ("int", "float")},
    "normal_cdf.x": "the standard normal CDF takes any real",
    "active_cell.h": "a lattice spacing read off a GridDomain, which "
                     "checked it",
}


def numeric_parameters():
    """'callable.parameter' for every parameter annotated int or float of
    the public API: the names in each module's __all__, the public
    functions of geometry and theta (which have no __all__), and so the
    fields of PathConfig."""
    objs = [getattr(m, name) for m in (eigenwalk, brownian, spectral)
            for name in m.__all__]
    objs += [f for m in (geometry, theta_module)
             for name, f in vars(m).items() if not name.startswith("_")
             and inspect.isfunction(f) and f.__module__ == m.__name__]
    found = set()
    for obj in objs:
        if not callable(obj) or (isinstance(obj, type)
                                 and issubclass(obj, BaseException)):
            continue
        for p in inspect.signature(obj).parameters.values():
            ann = p.annotation
            words = str(getattr(ann, "__name__", ann)).replace(" ", "")
            if {"int", "float"} & set(words.split("|")):
                found.add(f"{obj.__name__}.{p.name}")
    return found


def test_every_numeric_parameter_is_checked_or_exempt():
    """A new entry point with an int or float parameter fails here until
    the parameter is fed bad values above, or exempt with a reason."""
    found = numeric_parameters()
    assert {"PathConfig.seed", "solve_eigs.residual_tol",
            "feynman_kac.t", "GridDomain.h"} <= found
    missing = found - set(ENTRY_POINTS) - set(SPEC_PARAMETERS) \
        - set(BOUNDED) - set(EXEMPT)
    assert not missing, f"numeric parameters no table covers: {missing}"
    stale = set(EXEMPT) - found
    assert not stale, f"exempt but not a numeric parameter: {stale}"
