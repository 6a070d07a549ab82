"""Tests for the ball first-exit probability and its companion bounds.

The 12-digit expected values below are regression pins for behavior that
was validated against two independent routes when this module was built:

* n = 1 agrees with the alternating-images survival formula for an
  interval to 1e-10 (tested here directly), and
* (n, c) in {2,3} x {1,2,4,8} agreed with a free-space Monte Carlo
  first-exit oracle at 1e6 paths within 1.5 standard errors (a reduced
  comparison runs here).

Several upper-bound formulas exposed by the module do NOT dominate the
exit probability under the variance-2t increment convention that the
Monte Carlo oracle validates.  Tests below assert the actual behavior in
both directions: where a bound provably holds, and where it provably
fails.  The module docstring of eigenwalk.theta explains the convention.
"""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eigenwalk.theta import (
    ThetaValue,
    bessel_zeros,
    cube_escape,
    interval_survival_images,
    mc_exit_probability,
    normal_cdf,
    theta,
    theta_bound_gamma,
    theta_bound_reflection,
    theta_inverse,
)

# Regression pins, 12 decimals.  Absolute tolerance 1e-9 sits far above the
# series truncation (1e-12) and summation rounding, far below any real change.
FROZEN_THETA = {
    (1, 1.0): 0.892022955556,
    (1, 2.0): 0.629222570200,
    (1, 4.0): 0.314554233110,
    (1, 8.0): 0.091000523846,
    (1, 16.0): 0.009355469963,
    (2, 1.0): 0.995067695269,
    (2, 2.0): 0.911110283915,
    (2, 3.0): 0.766988830995,
    (2, 4.0): 0.623164897296,
    (2, 8.0): 0.246027796006,
    (2, 16.0): 0.034736940593,
    (3, 1.0): 0.999896553628,
    (3, 2.0): 0.985616238639,
    (3, 4.0): 0.830493500976,
    (3, 8.0): 0.431927780713,
    (3, 16.0): 0.082667941417,
}


@pytest.mark.parametrize("key", sorted(FROZEN_THETA))
def test_theta_frozen_values(key):
    n, c = key
    out = theta(n, c)
    assert isinstance(out, ThetaValue)
    assert abs(out.p - FROZEN_THETA[key]) < 1e-9
    assert out.truncation_error < 1e-10
    assert out.terms_used >= 1


def test_theta_result_is_immutable():
    out = theta(2, 4.0)
    with pytest.raises(AttributeError):
        out.p = 0.0


def test_theta_matches_interval_images_in_1d():
    # Independent closed form: alternating reflection images for the exit
    # probability of an interval.  Agreement to 1e-10 across three decades.
    for c in np.geomspace(0.05, 50.0, 40):
        series = theta(1, float(c)).p
        images = 1.0 - interval_survival_images(float(c))
        assert abs(series - images) < 1e-10


def test_theta_limits():
    assert theta(2, 1e-6).p > 1.0 - 1e-9
    assert theta(2, 1e-6).p <= 1.0
    # True value at c = 1e4 is ~e^{-2500}; the series in doubles returns
    # rounding crumbs of order 1e-13, so only smallness is asserted.
    assert theta(2, 1e4).p < 1e-10
    assert theta(3, 1e-6).p > 1.0 - 1e-9


def test_theta_strictly_decreasing_onto_unit_interval():
    # Below c ~ 0.3 the survival series is under machine epsilon and p
    # rounds to exactly 1.0, so strictness is only checkable from there up.
    grid = np.geomspace(0.3, 1e2, 100)
    for n in (1, 2, 3):
        vals = np.array([theta(n, float(c)).p for c in grid])
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] > 0.99
        assert vals[-1] < 1e-9


def test_theta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta(0, 1.0)
    with pytest.raises(ValueError):
        theta(-1, 1.0)
    with pytest.raises(ValueError):
        theta(2, 0.0)
    with pytest.raises(ValueError):
        theta(2, -3.0)
    with pytest.raises(ValueError):
        theta(2, math.inf)
    with pytest.raises(ValueError):
        theta(2, math.nan)


def test_theta_sums_the_series_as_the_term_by_term_loop():
    """theta finds its truncation point in one pass and sums the kept terms
    with cumsum; p, truncation_error and terms_used are the reference
    loop's bit for bit, across c from 1e-3 (one kept term) to 1e5 (about
    500, past two growths of the term count)."""
    for n in range(1, 6):
        for c in np.geomspace(1e-3, 1e5, 3000):
            got = theta(n, float(c))
            want = oracles.theta_series(n, float(c))
            assert (got.p, got.truncation_error, got.terms_used) == want, (n, c)


@pytest.mark.parametrize("n, c", [(20, 1e6), (40, 4096.0), (10, 1e8)])
def test_theta_refuses_a_sum_lost_to_cancellation(n, c):
    """For n >= 6 the coefficients alternate and grow, so at large c the
    double-precision sum is noise (1.0, 1.0 and 1.7e-3 here, where theta
    is about 0).  theta refuses once eps * sum |kept terms| exceeds 1e-10,
    naming n, c and the bound."""
    with pytest.raises(ValueError, match=re.escape(f"n={n}, c={c:g} cancels")):
        theta(n, c)


def test_bessel_zeros_refuses_a_nan_order():
    with pytest.raises(ValueError, match="nu"):
        bessel_zeros(math.nan, 3)


def test_theta_huge_c_raises_diagnostic():
    # c around 1e12 would need more than a million series terms; the value
    # is 0 to hundreds of digits, and the function refuses rather than
    # silently spending minutes growing the zero cache.
    with pytest.raises(ValueError, match="terms"):
        theta(2, 1e12)


# ---------------------------------------------------------------------------
# Bessel zeros


def test_first_zero_of_j0():
    z = bessel_zeros(0.0, 1)
    assert abs(z[0] - 2.404826) < 1e-6


def test_zeros_interlace():
    a = bessel_zeros(0.0, 20)
    b = bessel_zeros(1.0, 20)
    assert np.all(a[:-1] < b[:-1])
    assert np.all(b[:-1] < a[1:])


def test_zero_spacing_approaches_pi():
    z = bessel_zeros(0.0, 50)
    assert abs((z[49] - z[48]) - math.pi) < 1e-3
    assert np.all(np.diff(z) > 0)


def test_half_integer_zeros_are_exact():
    # J_{1/2} is proportional to sin(x)/sqrt(x): zeros at k*pi exactly.
    z = bessel_zeros(0.5, 8)
    assert np.max(np.abs(z - np.arange(1, 9) * math.pi)) < 1e-12
    # J_{-1/2} is proportional to cos(x)/sqrt(x): zeros at (k - 1/2)*pi.
    z = bessel_zeros(-0.5, 8)
    assert np.max(np.abs(z - (np.arange(1, 9) - 0.5) * math.pi)) < 1e-12


def test_bessel_zeros_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_zeros(0.0, 0)
    with pytest.raises(ValueError):
        bessel_zeros(-0.6, 3)


def test_zeros_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for nu in (0.0, 0.5, 1.0, 2.5):
        z = bessel_zeros(nu, 300)
        for k in (1, 2, 50, 300):
            ref = float(mpmath.besseljzero(nu, k))
            assert abs(z[k - 1] - ref) <= 2e-16 * ref


def test_series_reads_the_one_zero_cache():
    """theta's series and bessel_zeros read one table per order, and a
    zero does not depend on how many were asked for, so growing the table
    leaves every stored zero as it was."""
    import eigenwalk.theta as T

    zeros, coef, sums = T._series(0.0, 200)
    assert zeros is T._SERIES[0.0][0] and zeros.size >= 200
    assert np.array_equal(zeros[:200], bessel_zeros(0.0, 200))
    assert not any(a.flags.writeable for a in (zeros, coef, sums))
    assert np.array_equal(T._newton_zeros(0.0, 10),
                          T._newton_zeros(0.0, 3000)[:10])


def test_theta_names_the_module():
    import eigenwalk
    import eigenwalk.theta as T

    assert inspect.ismodule(T) and T.theta(2, 4.0).p == theta(2, 4.0).p
    assert "theta" not in eigenwalk.__all__


def test_bessel_zeros_returns_a_private_copy():
    a = bessel_zeros(0.0, 3)
    a[0] = -1.0
    b = bessel_zeros(0.0, 3)
    assert b[0] > 2.4


# ---------------------------------------------------------------------------
# Inverse


def test_inverse_roundtrip():
    for n in (1, 2, 3):
        for p in (0.1, 0.5, 0.9):
            c = theta_inverse(n, p)
            assert abs(theta(n, c).p - p) < 1e-8


def test_inverse_self_consistency():
    p = theta(2, 4.0).p
    assert abs(theta_inverse(2, p) - 4.0) < 1e-6


def test_inverse_monotone():
    assert theta_inverse(2, 0.1) > theta_inverse(2, 0.5) > theta_inverse(2, 0.9)


def test_inverse_rejects_bad_probabilities():
    for p in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(ValueError):
            theta_inverse(2, p)


@pytest.mark.parametrize("p", [1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12])
def test_inverse_refuses_probabilities_its_tolerance_cannot_resolve(p):
    """Within 1e-9 of 0 or 1 every c far enough out meets |theta - p| <
    1e-9, so a returned c would say nothing (1000.0 and 0.001 did)."""
    with pytest.raises(ValueError, match="1e-9"):
        theta_inverse(2, p)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_inverse_in_high_dimensions(n):
    """The bracket doubles up from c = 1 and stays short of the c where the
    series cancels; started from c = 1e6 it ran into that noise at n = 40
    and never converged.  The root is checked against the series summed
    in 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    c = theta_inverse(n, 0.5)
    assert abs(theta(n, c).p - 0.5) < 1e-9
    with mpmath.workdps(30):
        nu = mpmath.mpf(n) / 2 - 1
        survival, k, term = 0, 1, 1
        while abs(term) > 1e-25:
            j = mpmath.besseljzero(nu, k)
            term = (j ** (nu - 1) * mpmath.exp(-j * j / c)
                    / (2 ** (nu - 1) * mpmath.gamma(nu + 1)
                       * mpmath.besselj(nu + 1, j)))
            survival, k = survival + term, k + 1
        assert abs(float(1 - survival) - 0.5) < 1e-9 + 1e-12


# ---------------------------------------------------------------------------
# Bound formulas: exact values and validity regimes


def test_reflection_bound_values():
    assert abs(theta_bound_reflection(2, 2.0) - 0.9367973043891067) < 1e-12
    assert abs(theta_bound_reflection(2, 8.0) - 0.046640391440451096) < 1e-12
    with pytest.raises(ValueError):
        theta_bound_reflection(2, 1.5)
    with pytest.raises(ValueError):
        theta_bound_reflection(3, 2.9)


def test_gamma_bound_value_and_regime():
    assert abs(theta_bound_gamma(2, 16.0, 0.1) - 1.1 * math.exp(-4.0)) < 1e-12
    with pytest.raises(ValueError):
        theta_bound_gamma(2, 7.9, 0.1)
    with pytest.raises(ValueError):
        theta_bound_gamma(2, 16.0, -0.1)


def test_gamma_bound_monotone_decreasing_in_regime():
    for n in (1, 2, 3):
        grid = np.geomspace(4 * n, 200.0, 50)
        vals = [theta_bound_gamma(n, float(c), 0.1) for c in grid]
        assert np.all(np.diff(vals) < 0.0)


def test_normal_cdf_and_cube_escape():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-12
    assert abs(cube_escape(2, 2.0) - 0.1006859584002205) < 1e-12


@given(st.floats(-8, 8))
def test_normal_cdf_symmetry(x):
    assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# How the bound formulas actually relate to the exit probability.
#
# The exit probability follows the variance-2t increment convention (the
# one the Monte Carlo oracle validates).  The reflection-principle formula
# constant 2^{3n/2}/pi^{n/2} only dominates when the formula is read on a
# half-speed clock, exit(n, 2c) <= bound(n, c), and for n = 3 not even
# then beyond c ~ 6.5 because the true tail carries a sqrt(c) prefactor
# (the chi-square_3 tail) that beats any constant.  The incomplete-gamma
# formula has the correct e^{-c/4} decay rate for this convention but a
# constant that is too small for n <= 2 (the true n = 2 prefactor tends
# to 2 > 1 + eps).  These are properties of the formulas, frozen from a
# 60-digit arbitrary-precision evaluation of the series; the tests assert
# the actual directions so a silent change in either piece is caught.


def test_reflection_bound_does_not_dominate_on_the_same_clock():
    assert theta(2, 3.0).p > theta_bound_reflection(2, 3.0)
    assert theta(2, 8.0).p > theta_bound_reflection(2, 8.0)
    assert theta(3, 8.0).p > theta_bound_reflection(3, 8.0)


def test_reflection_bound_dominates_on_half_speed_clock_in_2d():
    # Verified in 60-digit arithmetic: exit(2, 2c) * e^{c/2} increases
    # toward 2 < 8/pi, so the half-clock comparison holds for every c.
    # Doubles are trustworthy up to c ~ 50 (values ~1e-11 vs rounding
    # crumbs ~1e-15 from the 1 - sum cancellation).
    for c in np.geomspace(2.0, 50.0, 60):
        assert theta(2, 2.0 * float(c)).p <= theta_bound_reflection(2, float(c))
    # 1d version holds as well, with even more slack.
    for c in np.geomspace(1.0, 50.0, 30):
        assert theta(1, 2.0 * float(c)).p <= theta_bound_reflection(1, float(c))


def test_reflection_bound_half_clock_crossover_in_3d():
    # The 3d tail grows like sqrt(c) * e^{-c/2} on the half clock, so the
    # constant-prefactor formula is outgrown; the crossing sits near 6.48.
    assert theta(3, 8.0).p <= theta_bound_reflection(3, 4.0)
    assert theta(3, 20.0).p > theta_bound_reflection(3, 10.0)


def test_gamma_bound_dominates_only_above_two_dimensions():
    assert theta(1, 16.0).p > theta_bound_gamma(1, 16.0, 0.1)
    assert theta(2, 16.0).p > theta_bound_gamma(2, 16.0, 0.1)
    for c in np.geomspace(12.0, 100.0, 40):
        assert theta(3, float(c)).p <= theta_bound_gamma(3, float(c), 0.1)
    for c in np.geomspace(16.0, 100.0, 20):
        assert theta(4, float(c)).p <= theta_bound_gamma(4, float(c), 0.1)


def test_gamma_tail_is_a_lower_bound():
    # Being outside the ball at time t implies having exited by t, so the
    # chi-square tail must sit below the exit probability everywhere.
    from eigenwalk.theta import gamma_tail_outside

    for n in (1, 2, 3):
        for c in np.geomspace(0.1, 50.0, 40):
            assert gamma_tail_outside(n, float(c)) <= theta(n, float(c)).p + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def test_mc_exit_is_deterministic_and_thread_invariant():
    # determinism needs no fine step; 100 steps keep the test short
    a = mc_exit_probability(2, 8.0, n_paths=20_000, seed=7, dt_factor=0.01)
    b = mc_exit_probability(2, 8.0, n_paths=20_000, seed=7, dt_factor=0.01)
    c = mc_exit_probability(2, 8.0, n_paths=20_000, seed=7, dt_factor=0.01,
                            threads=2)
    assert a == b == c
    d = mc_exit_probability(2, 8.0, n_paths=20_000, seed=8, dt_factor=0.01)
    assert d != a
    assert a.stderr > 0.0
    assert 0.0 <= a.p <= 1.0


def test_mc_exit_pinned_across_batches():
    """70 000 paths fill three batches of BATCH_PATHS = 32768; p was
    recorded from the oracle's own serial and pooled batch loops, before
    batches ran through the shared _rng.map_batches, and stderr once the
    sum of squared weights stopped going through a BLAS dot, whose last
    bits moved with the BLAS thread count."""
    for threads in (1, 2):
        est = mc_exit_probability(2, 4.0, n_paths=70_000, seed=5,
                                  dt_factor=0.01, threads=threads)
        assert (est.p, est.stderr) == (0.6241545997017117, 0.00178757460967251)


def test_mc_exit_agrees_with_series():
    # One pair at 1e5 paths, 4 sigma: a reduced form of the 1e6-path check
    # over {2,3} x {1,2,4,8} that this file's docstring describes.
    est = mc_exit_probability(2, 4.0, n_paths=100_000, seed=11)
    assert abs(est.p - theta(2, 4.0).p) <= 4.0 * est.stderr


def test_mc_exit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mc_exit_probability(2, 4.0, n_paths=0)
    with pytest.raises(ValueError):
        mc_exit_probability(0, 4.0, n_paths=100)


@pytest.mark.parametrize("dt_factor", [0.003, 0.07])
def test_mc_exit_refuses_a_step_that_does_not_divide_the_horizon(dt_factor):
    """round(1/0.003) = 333 steps end at 0.999 t and 14 steps of 0.07 at
    0.98 t: a shorter horizon than asked for, so refused."""
    with pytest.raises(ValueError, match="dt_factor must be 1/N"):
        mc_exit_probability(2, 4.0, n_paths=100, dt_factor=dt_factor)


@pytest.mark.parametrize("dt_factor", [0.1, 0.01, 1e-3, 1e-4])
def test_mc_exit_accepts_reciprocal_steps(dt_factor):
    # c = 100 kills the one path within a few of its steps
    est = mc_exit_probability(2, 100.0, n_paths=1, dt_factor=dt_factor)
    assert 0.0 <= est.p <= 1.0


@pytest.mark.parametrize("kw", [{"n": 2.0}, {"n": 1.5},
                                {"n_paths": 1000.0}, {"n_paths": "1000"}],
                         ids=["n=2.0", "n=1.5", "n_paths=1000.0",
                              "n_paths='1000'"])
def test_mc_exit_refuses_non_integer_counts(kw):
    """Refused up front, not by a TypeError inside a batch worker."""
    args = {"n": 2, "c": 4.0, "n_paths": 1000, "threads": 2} | kw
    with pytest.raises(ValueError, match="must be a positive integer"):
        mc_exit_probability(**args)


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_theta_output_contract(n, c):
    out = theta(n, c)
    assert 0.0 <= out.p <= 1.0
    assert out.truncation_error < 1e-10
    assert out.terms_used >= 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    c1=st.floats(min_value=1e-2, max_value=80.0),
    c2=st.floats(min_value=1e-2, max_value=80.0),
)
def test_theta_monotone_in_c(n, c1, c2):
    lo, hi = sorted((c1, c2))
    assert theta(n, lo).p >= theta(n, hi).p


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    p=st.floats(min_value=0.01, max_value=0.99),
)
def test_inverse_roundtrip_property(n, p):
    assert abs(theta(n, theta_inverse(n, p)).p - p) < 1e-8
