"""Independent checks on the package's outputs.

Each function takes program outputs plus whatever the check needs and
returns (ok, detail).  None of them compares against stored output: each
recomputes the quantity by a route that shares no code with the package (a
5-point stencil, closed-form discrete sine spectra, a k-d tree over
vertices, mpmath Bessel zeros) or tests a property the method must have
(nesting, interpolation, a bracket, a theorem's inequality, a z bound).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.spatial import cKDTree

Z_MAX = 4.5  # two-sided normal tail 6.8e-6 per estimate


# ---------------------------------------------------------------------------
# spectra


def regular_nodes(mask: np.ndarray) -> np.ndarray:
    """Active nodes none of whose four lattice cells has exactly three
    active corners.  Only such a re-entrant corner cell cuts a quarter
    cell, so at these nodes the finite-volume row of an all-Dirichlet
    operator is the plain 5-point stencil with mass h^2."""
    p = np.pad(mask, 1).astype(np.int8)
    three = (p[:-1, :-1] + p[:-1, 1:] + p[1:, :-1] + p[1:, 1:]) == 3
    near = three[:-1, :-1] | three[:-1, 1:] | three[1:, :-1] | three[1:, 1:]
    return mask & ~near


def stencil_residual(field: np.ndarray, lam: float, mask: np.ndarray,
                     h: float) -> float:
    """||L5 v - lam v|| / ||v||, the residual taken over the regular nodes,
    L5 the 5-point -Laplacian with zero values at inactive and off-grid
    neighbours."""
    v = np.where(mask, field, 0.0)
    p = np.pad(v, 1)
    lap = (4.0 * v - p[1:-1, 2:] - p[1:-1, :-2] - p[2:, 1:-1] - p[:-2, 1:-1]) / (h * h)
    r = (lap - lam * v)[regular_nodes(mask)]
    return float(np.linalg.norm(r) / np.linalg.norm(v[mask]))


def check_dirichlet_residuals(fields, lams, mask, h, tol=1e-8):
    """Every Dirichlet eigenpair satisfies the 5-point stencil at the
    regular nodes to tol * (1 + lam), the solver's own certificate level."""
    skipped = int(mask.sum() - regular_nodes(mask).sum())
    worst = max(stencil_residual(f, float(lam), mask, h) / (1.0 + abs(lam))
                for f, lam in zip(fields, lams))
    return worst <= tol, (f"max stencil residual/(1+lam) {worst:.3e} <= {tol:g} "
                          f"({skipped} nodes at re-entrant corners skipped)")


def chain_eigenvalue(h: float, n: int) -> float:
    """Lowest eigenvalue of the 1d 5-point chain of n nodes, zero ghosts."""
    return 4.0 / (h * h) * math.sin(math.pi / (2.0 * (n + 1))) ** 2


def box_eigenvalue(h: float, nx: int, ny: int) -> float:
    return chain_eigenvalue(h, nx) + chain_eigenvalue(h, ny)


def check_monotone(lam1: float, mask: np.ndarray, h: float,
                   inner: tuple[slice, slice], rtol=1e-9):
    """Dirichlet monotonicity on one lattice: the full lattice box contains
    the domain, which contains the inner node rectangle, so
    lam1(box) <= lam1(domain) <= lam1(inner), both ends closed forms."""
    sy, sx = inner
    sub = mask[sy, sx]
    if sub.size == 0 or not sub.all():
        return False, "inner rectangle is not inside the domain"
    lo = box_eigenvalue(h, mask.shape[1], mask.shape[0])
    hi = box_eigenvalue(h, sub.shape[1], sub.shape[0])
    ok = lo <= lam1 * (1 + rtol) and lam1 <= hi * (1 + rtol)
    return ok, f"{lo:.6f} <= lam1 {lam1:.6f} <= {hi:.6f}"


def check_rel(value: float, want: float, rtol: float, what: str):
    err = abs(value - want) / abs(want)
    return err <= rtol, f"{what} {value:.12g} vs {want:.12g}: rel {err:.2e} <= {rtol:g}"


def check_neumann_zero(lams):
    mu1 = float(lams[0])
    return abs(mu1) <= 1e-9, f"mu1 {mu1:.3e}"


def check_neumann_orthogonal(f2, masses, mask):
    """The second Neumann field is mass-orthogonal to the constant."""
    s = float((masses * f2)[mask].sum())
    scale = float((masses * np.abs(f2))[mask].sum())
    return abs(s) <= 1e-8 * scale, f"sum m f2 {s:.3e} (scale {scale:.3e})"


def check_szego_weinberger(mu2: float, area: float):
    bound = 4.0 * math.pi / area
    return 0.0 < mu2 <= bound, f"0 < mu2 {mu2:.6f} <= 4pi/area {bound:.6f}"


def boundary_nodes(mask: np.ndarray) -> np.ndarray:
    """Active nodes with an inactive or off-grid 4-neighbour."""
    p = np.pad(mask, 1)
    inner = p[1:-1, 2:] & p[1:-1, :-2] & p[2:, 1:-1] & p[:-2, 1:-1]
    return mask & ~inner


def hot_spot_record(f2: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """(max |f2| on boundary nodes, max |f2| on interior nodes)."""
    bnd = boundary_nodes(mask)
    a = np.abs(f2)
    return float(a[bnd].max()), float(a[mask & ~bnd].max())


def check_hot_spot(f2, mask):
    b, i = hot_spot_record(f2, mask)
    return b >= i, f"boundary max |f2| {b:.6f} >= interior max {i:.6f}"


# ---------------------------------------------------------------------------
# level sets and distances


def normalized(field: np.ndarray, mask: np.ndarray) -> np.ndarray:
    g = np.abs(np.where(mask, field, 0.0))
    return g / g[mask].max()


def check_level_vertices(polylines, field, mask, h, origin, eta,
                         tol=1e-9, edge_tol=1e-6):
    """Every vertex lies on a cell edge between two active nodes and the
    linear interpolation of |field|/max along that edge equals eta."""
    g = normalized(field, mask)
    ny, nx = mask.shape
    pts = np.vstack([np.asarray(p, dtype=float) for p in polylines])
    fx = (pts[:, 0] - origin[0]) / h
    fy = (pts[:, 1] - origin[1]) / h
    on_x = np.abs(fx - np.rint(fx)) < edge_tol  # vertical edge: ix fixed
    on_y = np.abs(fy - np.rint(fy)) < edge_tol
    if not (on_x | on_y).all():
        return False, f"{int((~(on_x | on_y)).sum())} vertices off every cell edge"
    ix = np.where(on_x, np.rint(fx), np.floor(fx)).astype(int)
    iy = np.where(on_x, np.floor(fy), np.rint(fy)).astype(int)
    t = np.where(on_x, fy - iy, fx - ix)
    jx = np.where(on_x, ix, ix + 1)
    jy = np.where(on_x, iy + 1, iy)
    np.clip(jx, 0, nx - 1, out=jx)
    np.clip(jy, 0, ny - 1, out=jy)
    inside = ((ix >= 0) & (iy >= 0) & (ix < nx) & (iy < ny))
    if not inside.all() or not (mask[iy, ix] & mask[jy, jx]).all():
        return False, "vertex on an edge with an inactive end"
    val = (1.0 - t) * g[iy, ix] + t * g[jy, jx]
    err = float(np.abs(val - eta).max())
    return err <= tol, f"{len(pts)} vertices, max |interp - eta| {err:.2e} <= {tol:g}"


def check_superlevel(masks, etas, field, mask):
    """Superlevel masks equal {|field|/max >= eta} and shrink as eta grows."""
    g = normalized(field, mask)
    order = np.argsort(etas)
    for k in order:
        if not np.array_equal(masks[k], mask & (g >= etas[k])):
            return False, f"superlevel mask at eta={etas[k]:.4f} differs"
    for a, b in zip(order, order[1:]):
        if (masks[b] & ~masks[a]).any():
            return False, f"eta={etas[b]:.4f} set not inside eta={etas[a]:.4f} set"
    return True, f"{len(etas)} superlevel sets exact and nested"


def vertex_bracket(polys_a, polys_b) -> tuple[float, float]:
    """[d_vv - (La + Lb)/2, d_vv] for the segment-set distance: d_vv is the
    nearest vertex pair (k-d tree), L the longest segment on each side."""
    va = np.vstack(polys_a)
    vb = np.vstack(polys_b)
    d_vv = float(cKDTree(vb).query(va, k=1)[0].min())

    def longest(polys):
        return max((float(np.hypot(*np.diff(p, axis=0).T).max())
                    for p in polys if len(p) > 1), default=0.0)

    return d_vv - 0.5 * (longest(polys_a) + longest(polys_b)), d_vv


def check_set_distance(d: float, polys_a, polys_b):
    lo, hi = vertex_bracket(polys_a, polys_b)
    slack = 1e-12 * max(1.0, hi)
    return lo - slack <= d <= hi + slack, f"{lo:.6g} <= d {d:.6g} <= {hi:.6g}"


# ---------------------------------------------------------------------------
# heat profile inequalities


def zeta(n: int, eps: float) -> float:
    """zeta_n(eps) of the uniform survival bound, from its closed form."""
    return (math.exp(n / 4.0) * math.sqrt(2.0) / (8.0 * n) ** (n / 4.0)
            * math.sqrt(math.gamma(n) / math.gamma(n / 2.0))
            * (1.0 + 1.0 / math.sqrt(eps)) ** (n / 2.0))


def zeta_envelope(lam1: float, t: float, n: int = 2) -> float:
    """min over an eps grid of zeta_n(eps) * exp(-(1 - eps) lam1 t)."""
    return min(zeta(n, e) * math.exp(-(1.0 - e) * lam1 * t)
               for e in np.geomspace(0.01, 4.0, 200))


def check_zeta_envelope(q_max: float, truncation: float, lam1: float, t: float):
    env = zeta_envelope(lam1, t)
    return q_max <= env + truncation, \
        f"max q_t {q_max:.6f} <= envelope {env:.6f} + truncation {truncation:.1e}"


def check_inradius(q_vals, d_vals, t: float, truncation: float, theta_fn):
    """Heat profile dominates ball survival: q_t(x) >= 1 - theta_2(d(x)^2/t),
    d(x) the radius of a disc around x inside the domain."""
    worst = math.inf
    for q, d in zip(q_vals, d_vals):
        ball = 1.0 - theta_fn(d * d / t) if d > 0 else 0.0
        worst = min(worst, q + truncation - ball)
    return worst >= 0.0, f"min slack q + trunc - (1 - theta) {worst:.4e} >= 0"


# ---------------------------------------------------------------------------
# Monte Carlo against spectral values


def check_z(mean: float, stderr: float, exact: float, what: str, zmax=Z_MAX):
    if not stderr > 0:
        return False, f"{what}: stderr {stderr} is not positive"
    z = (mean - exact) / stderr
    return abs(z) <= zmax, f"{what}: {mean:.6f} +- {stderr:.6f} vs {exact:.6f}, |z| {abs(z):.2f} <= {zmax}"


def check_identical(a, b, what: str):
    return a == b, f"{what}: {a!r} == {b!r}"


# ---------------------------------------------------------------------------
# ball exit: Bessel series from mpmath zeros


class BallSeries:
    """Survival 1 - theta_n(c) = sum_k a_k exp(-j_k^2 / c) with the zeros
    j_k of J_nu (nu = n/2 - 1) from mpmath.besseljzero and coefficients
    a_k = j^(nu-1) / (2^(nu-1) Gamma(nu+1) J_{nu+1}(j)) in 30-digit
    arithmetic.  `c_max` bounds the c for which K terms leave a tail below
    1e-16."""

    def __init__(self, n: int, c_max: float):
        if n < 2:
            raise ValueError("use the method of images for n = 1")
        nu = mpmath.mpf(n) / 2 - 1
        with mpmath.workdps(30):
            zeros, coefs = [], []
            k = 0
            while True:
                k += 1
                j = mpmath.besseljzero(nu, k)
                zeros.append(j)
                coefs.append(j ** (nu - 1) / (2 ** (nu - 1) * mpmath.gamma(nu + 1)
                                              * mpmath.besselj(nu + 1, j)))
                if j * j / c_max > 40:  # e^-40 ~ 4e-18
                    break
        self.n = n
        self.c_max = c_max
        self.zeros = zeros
        self.coefs = coefs

    def theta(self, c: float) -> float:
        if not 0 < c <= self.c_max:
            raise ValueError(f"c={c} outside (0, {self.c_max}]")
        with mpmath.workdps(30):
            s = mpmath.fsum(a * mpmath.exp(-j * j / c)
                            for a, j in zip(self.coefs, self.zeros))
            return float(1 - s)


def check_abs(values, refs, tol: float, what: str):
    err = float(np.max(np.abs(np.asarray(values) - np.asarray(refs))))
    return err <= tol, f"{what}: max abs error {err:.2e} <= {tol:g}"
