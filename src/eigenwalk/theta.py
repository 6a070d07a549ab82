"""Ball first-exit probability for Brownian motion run at generator speed.

Everything here is about one scalar function: the probability that a free
Brownian particle started at the center of an n-ball of radius r leaves the
ball within time t.  That probability depends on (r, t) only through the
dimensionless ratio c = r^2/t, and we call it theta_n(c).

Time normalization: the particle is generated by the full Laplacian
(semigroup exp(t*Lap), transition density (4*pi*t)^(-n/2) exp(-|x|^2/4t)), so
each coordinate increment over a step dt has variance 2*dt.  Under that
normalization the survival probability inside the ball is the Dirichlet-ball
eigenfunction series

    1 - theta_n(c) = sum_k a_{nu,k} * exp(-j_{nu,k}^2 / c),    nu = n/2 - 1,

with j_{nu,k} the positive zeros of the Bessel function J_nu and

    a_{nu,k} = j_{nu,k}^(nu-1) / (2^(nu-1) * Gamma(nu+1) * J_{nu+1}(j_{nu,k})).

The exponent scaling (-j^2/c rather than -j^2/(2c)) is validated against the
independent Monte Carlo first-exit oracle in this module (see
``mc_exit_probability`` and the test suite); the alternative corresponds to
the half-Laplacian clock and is excluded by dozens of standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, jv, jvp

from eigenwalk._rng import NormalChunks, batch_rng, map_batches
from eigenwalk.geometry import _number

TRUNCATION_TOL = 1e-12
MAX_TERMS = 1_000_000
# theta refuses a sum whose rounding bound, eps * sum |kept terms|, exceeds
# this: the tolerance its values are checked to against independent series
_ROUNDING_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

# Path streams are laid out in fixed-size batches, each with its own SFC64
# generator keyed by (seed, stream, batch), so estimates are a pure function
# of (seed, n_paths) no matter how batches are scheduled.
BATCH_PATHS = 32768
_STEP_CHUNK = 32


@dataclass(frozen=True)
class ThetaValue:
    """Value of theta_n(c) together with series diagnostics."""

    n: int
    c: float
    p: float
    truncation_error: float
    terms_used: int


def _newton_zeros(nu: float, k: int) -> np.ndarray:
    ks = np.arange(1, k + 1, dtype=float)
    beta = (ks + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    # two-term McMahon guess; inside Newton's basin for every k >= 1
    x = beta - (mu - 1.0) / (8.0 * beta) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    # each zero iterates on its own until its step drops below 1e-9, after
    # which the quadratic error (under step^2 / 2) is below rounding; so a
    # zero depends only on (nu, its index), not on how many were requested
    todo = np.arange(k)
    for _ in range(60):
        if not todo.size:
            break
        xt = x[todo]
        step = jv(nu, xt) / jvp(nu, xt)
        # keep each iterate inside its own interlacing window
        np.clip(step, -1.0, 1.0, out=step)
        x[todo] = xt - step
        todo = todo[np.abs(step) >= 1e-9]
    resid = np.abs(jv(nu, x))
    if not np.all(resid < 1e-12):
        raise RuntimeError(
            f"bessel_zeros: Newton residual {float(resid.max()):.3e} > 1e-12 "
            f"for nu={nu}"
        )
    x.setflags(write=False)
    return x


# One series table per Bessel order nu: the zeros of J_nu, the coefficients
# a_{nu,k} of dimension n = 2*nu + 2 and their running sums of magnitudes,
# immutable and replaced whole to grow, which keeps every prefix's bits.
_SERIES: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _series(nu: float, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cached (zeros, coefficients, running |coefficient| sums) of
    order nu, each at least k long."""
    zeros = _SERIES[nu][0] if nu in _SERIES else np.empty(0)
    if zeros.size < k:
        zeros = _newton_zeros(nu, max(k, 128, 2 * zeros.size))
        coef = zeros ** (nu - 1.0) / (
            2.0 ** (nu - 1.0) * math.gamma(nu + 1.0) * jv(nu + 1.0, zeros))
        sums = np.abs(coef).cumsum()
        coef.setflags(write=False)
        sums.setflags(write=False)
        _SERIES[nu] = zeros, coef, sums
    return _SERIES[nu]


def bessel_zeros(nu: float, k: int) -> np.ndarray:
    """First k positive zeros of J_nu in ascending order, nu >= -1/2.

    McMahon's expansion seeds a vectorized Newton iteration on J_nu, run to
    absolute residual < 1e-12 (RuntimeError if that fails).  Results are
    cached per order; a bad k or nu raises ValueError.
    """
    k = _number("k", k, integer=True)
    return _series(_number("nu", nu, least=-0.5), k)[0][:k].copy()


def theta(n: int, c: float) -> ThetaValue:
    """Exit probability theta_n(c), c = r^2/t, via the Dirichlet-ball series.

    The series is summed until the next term's magnitude drops below 1e-12;
    ``truncation_error`` reports the first omitted term.  ValueError, not
    a silently wrong value, for an (n, c) out of reach: truncation needs
    over 1e6 terms (c beyond ~4e11), or the rounding bound of the kept
    terms, eps * sum |terms|, exceeds 1e-10 (n >= 6 at large c, where the
    coefficients alternate and grow: theta_20(1e6) would read 1).
    """
    n, c = _number("n", n, integer=True), _number("c", c)

    # terms die once j_k^2 >> c and j_k ~ k*pi, so k* ~ sqrt(c ln(1/tol))/pi
    est = int(math.sqrt(c * math.log(1.0 / TRUNCATION_TOL)) / math.pi) + 16
    if est > MAX_TERMS:
        raise ValueError(f"theta: c={c:g} needs about {est} series terms "
                         f"(> {MAX_TERMS}); refusing to under-resolve")

    # est terms suffice for n <= 2 at every c and for n <= 5 at c < 9e3;
    # a short pass grows 4-fold.  np.exp gives the same bits at every array
    # length, so the pass size changes no result, only its cost
    count = est
    while True:
        zeros, coef, coef_sums = _series(n / 2.0 - 1.0, count)
        # x / -c is -(x / c) to the bit, one negation fewer than -x / c
        terms = coef[:count] * np.exp(zeros[:count] ** 2 / -c)
        size = np.abs(terms)
        # the first term below the tolerance, past the leading one, which
        # always counts; index 1 when there is none
        terms_used = int((size[1:] < TRUNCATION_TOL).argmax()) + 1
        first_omitted = float(size[terms_used])
        if first_omitted < TRUNCATION_TOL:
            break
        if count >= MAX_TERMS:
            raise ValueError(f"theta: the series for n={n}, c={c:g} did not "
                             f"truncate within {MAX_TERMS} terms")
        count = min(4 * count, MAX_TERMS)
    # |term_k| <= |a_k|, so the cached sums of |a_k| clear most calls
    # without a pass over the kept terms
    if _EPS * coef_sums[terms_used - 1] > _ROUNDING_TOL:
        rounding = _EPS * float(size[:terms_used].sum())
        if rounding > _ROUNDING_TOL:
            raise ValueError(f"theta: the series for n={n}, c={c:g} cancels "
                             f"to a rounding bound of {rounding:.3g} "
                             f"(> {_ROUNDING_TOL:g})")
    # cumsum adds left to right, so this is the term-by-term sum's bits
    survival = float(terms[:terms_used].cumsum()[-1])
    p = min(1.0, max(0.0, 1.0 - survival))
    return ThetaValue(n=n, c=c, p=p, truncation_error=first_omitted,
                      terms_used=terms_used)


def theta_bound_gamma(n: int, c: float, eps: float) -> float:
    """Incomplete-gamma tail bound (1+eps)/Gamma(n/2) * c^(n/2-1) * e^(-c/4).

    Only the regime c >= 4n is accepted; the formula is an asymptotic
    statement and has no meaning for small c.
    """
    n, c = _number("n", n, integer=True), _number("c", c)
    eps = _number("eps", eps)
    if c < 4 * n:
        raise ValueError(f"gamma bound requires c >= 4n (got c={c}, n={n})")
    return (1.0 + eps) / math.gamma(n / 2.0) * c ** (n / 2.0 - 1.0) * math.exp(-c / 4.0)


def gamma_tail_outside(n: int, c: float) -> float:
    """P(|X_t| > r) at the fixed time t for the variance-2t Gaussian: the
    regularized upper incomplete gamma Gamma(n/2, c/4)/Gamma(n/2).

    A lower bound for theta_n(c): being outside at time t implies having
    exited by time t."""
    n, c = _number("n", n, integer=True), _number("c", c)
    return float(1.0 - gammainc(n / 2.0, c / 4.0))


def theta_bound_reflection(n: int, c: float) -> float:
    """Closed-form bound 2^(3n/2)/pi^(n/2) * e^(-c/2), quoted for c >= n.

    Raises for c < n (outside the quoted regime)."""
    n, c = _number("n", n, integer=True), _number("c", c)
    if c < n:
        raise ValueError(f"reflection bound requires c >= n (got c={c}, n={n})")
    return 2.0 ** (1.5 * n) / math.pi ** (n / 2.0) * math.exp(-c / 2.0)


def cube_escape(n: int, c: float) -> float:
    """The inscribed-cube expression (2*Phi(-sqrt(c/n)))^n behind the
    reflection bound, with Phi the standard normal CDF."""
    n, c = _number("n", n, integer=True), _number("c", c)
    return (2.0 * normal_cdf(-math.sqrt(c / n))) ** n


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def theta_inverse(n: int, p: float) -> float:
    """Solve theta_n(c) = p for c by bisection, to |theta(c) - p| < 1e-9.

    theta_n decreases strictly from 1 to 0 on (0, inf).  p must lie in
    (1e-9, 1 - 1e-9), where that tolerance pins c down, else ValueError.
    The bracket [1e-6, 1] (theta_n(1e-6) is 1 for every n: the first
    Bessel zero is at least pi/2) doubles upward until theta_n(hi) <= p,
    short of the c where the series cancels."""
    if not 1e-9 < _number("p", p) < 1.0 - 1e-9:
        raise ValueError(f"p must lie in (1e-9, 1 - 1e-9), got {p!r}")
    lo, hi = 1e-6, 1.0
    while theta(n, hi).p > p:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        val = theta(n, mid).p
        if abs(val - p) < 1e-9:
            return mid
        if val > p:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("theta_inverse: bisection did not converge to 1e-9")


@dataclass(frozen=True)
class McExit:
    """Monte Carlo first-exit estimate with its standard error."""

    p: float
    stderr: float
    n_paths: int


_EXIT_STREAM = 0x45584954  # stream tag for this oracle's batches


def _mc_exit_batch(n: int, batch_index: int, m: int, seed: int,
                   n_steps: int, dt: float) -> tuple[float, float]:
    """Survival-weight sums (sum w, sum w^2) over one path batch.

    Paths carry a survival weight, the running product of (1 - p_cross) with
    p_cross = exp(-d1*d2/dt) the between-step wall-crossing probability;
    stepping outside zeroes the weight, which then stays zero
    multiplicatively.  Positions are float32 (positional roundoff random-
    walks to ~1e-5 of the near-wall length scale over 1e4 steps, orders
    below the Monte Carlo noise); weight reductions are float64.  The
    crossing factor is 1.0 to double precision unless d1*d2 < 45*dt, so
    square roots and exponentials run only on the near-wall band.
    """
    rng = batch_rng(seed, _EXIT_STREAM, batch_index)
    chunks = NormalChunks()
    sig = math.sqrt(2.0 * dt)
    coords = [np.zeros(m, dtype=np.float32) for _ in range(n)]
    w = np.ones(m, dtype=np.float32)
    r2 = np.zeros(m, dtype=np.float32)
    r2_prev = np.zeros(m, dtype=np.float32)
    tmp = np.empty(m, dtype=np.float32)
    near = np.empty(m, dtype=bool)
    # d < band_d cannot be ruled out as a crossing contributor; anything
    # with both distances beyond it has p_cross < exp(-45) ~ 3e-20
    band_d = math.sqrt(45.0 * dt)
    band_r2 = np.float32((1.0 - band_d) ** 2) if band_d < 1.0 else np.float32(0.0)
    inv_dt = 1.0 / dt
    step = 0
    while step < n_steps and w.size:
        todo = min(_STEP_CHUNK, n_steps - step)
        dx = chunks.draw(rng, todo, n, w.size, sig)
        for s in range(todo):
            coords[0] += dx[s, 0]
            for a in range(1, n):
                coords[a] += dx[s, a]
            np.multiply(coords[0], coords[0], out=r2)
            for a in range(1, n):
                np.multiply(coords[a], coords[a], out=tmp)
                r2 += tmp
            np.greater(r2, band_r2, out=near)
            near |= r2_prev > band_r2
            idx = np.flatnonzero(near)
            if idx.size:
                d_new = 1.0 - np.sqrt(r2[idx].astype(np.float64))
                np.maximum(d_new, 0.0, out=d_new)
                d_old = 1.0 - np.sqrt(r2_prev[idx].astype(np.float64))
                np.maximum(d_old, 0.0, out=d_old)
                factor = -np.expm1(-(d_new * d_old) * inv_dt)
                w[idx] *= factor.astype(np.float32)
            r2_prev, r2 = r2, r2_prev
        step += todo
        if step < n_steps:
            alive = w > 1e-15
            if not alive.all():
                coords = [c[alive] for c in coords]
                w = w[alive]
                r2_prev = np.ascontiguousarray(r2_prev[alive])
                r2 = np.empty_like(r2_prev)
                tmp = np.empty_like(r2_prev)
                near = np.empty(w.size, dtype=bool)
    ws = w.astype(np.float64)
    # not ws @ ws: a BLAS dot's last bits move with its thread count
    return float(ws.sum()), float(np.sum(ws * ws))


def mc_exit_probability(n: int, c: float, n_paths: int, seed: int = 0,
                        dt_factor: float = 1e-4, threads: int = 1) -> McExit:
    """Independent free-space oracle for theta_n(c).

    Simulates Brownian paths with per-coordinate increment variance 2*dt from
    the center of the unit n-ball over horizon t = 1/c, accumulating the
    between-step wall-crossing probability exp(-d1*d2/dt) as a multiplicative
    survival weight (lower variance than Bernoulli kills, same mean; the
    sphere is treated as locally flat between steps).  A step landing outside
    the ball zeroes the weight.

    Deterministic for fixed (seed, n_paths), seed an integer >= 0, at any
    worker count: counter-keyed batches of fixed size, reduced in order.
    `threads` is the number of worker processes (_rng.map_batches); the
    same bits come out at any count.  Do not call this with threads > 1
    from more than one thread at once, since forking is not safe there.

    The walk takes 1/dt_factor steps of dt_factor*t, so dt_factor, in
    (0, 0.1], must divide 1: 0.07 would take 14 steps and stop at 0.98*t.
    """
    n, c = _number("n", n, integer=True), _number("c", c)
    n_paths = _number("n_paths", n_paths, integer=True)
    _number("seed", seed, integer=True, least=0)
    dt_factor = _number("dt_factor", dt_factor, most=0.1)
    n_steps = int(round(1.0 / dt_factor))
    if abs(n_steps * dt_factor - 1.0) > 1e-9:
        raise ValueError(f"dt_factor must be 1/N for an integer N: "
                         f"{n_steps} steps of {dt_factor} end at "
                         f"{n_steps * dt_factor:.6g}*t, not t")
    t = 1.0 / c
    dt = dt_factor * t

    sizes = [min(BATCH_PATHS, n_paths - lo) for lo in range(0, n_paths, BATCH_PATHS)]
    parts = map_batches(
        lambda b: _mc_exit_batch(n, b, sizes[b], seed, n_steps, dt),
        len(sizes), threads)
    sums, sqs = (np.array(col) for col in zip(*parts))

    mean_w = float(sums.sum()) / n_paths
    var = max(float(sqs.sum()) / n_paths - mean_w * mean_w, 0.0)
    stderr = math.sqrt(var / n_paths)
    return McExit(p=1.0 - mean_w, stderr=stderr, n_paths=n_paths)


def interval_survival_images(c: float) -> float:
    """Survival probability in (-1, 1) from 0 at c = r^2/t by the classical
    reflection (method-of-images) series over the Gaussian CDF.

    Independent closed-form cross-check of the n=1 Bessel series."""
    # per-coordinate variance 2t with r = 1, so the CDF argument unit is
    # a = 1/sqrt(2t) = sqrt(c/2)
    a = math.sqrt(_number("c", c) / 2.0)
    total = 2.0 * normal_cdf(a) - 1.0
    for k in range(1, 200):
        sgn = -1.0 if k % 2 else 1.0
        inc = sgn * (normal_cdf((2 * k + 1) * a) - normal_cdf((2 * k - 1) * a)
                     + normal_cdf((-2 * k + 1) * a) - normal_cdf((-2 * k - 1) * a))
        total += inc
        if abs(inc) < 1e-14:
            break
    return total


# warm the tables for n = 1, 2, 3: concurrent first calls only read them
for _nu in (-0.5, 0.0, 0.5):
    _series(_nu, 128)
del _nu
