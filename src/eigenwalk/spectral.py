"""Discrete Laplace spectra on rasterized domains.

The operator is assembled as a finite-volume pair (stiffness K, mass M)
on the active lattice nodes and then standardized once and for all:

    B = M^{-1/2} K M^{-1/2},

so every consumer sees an ordinary symmetric positive-semidefinite sparse
matrix whose eigenpairs (lam, u) map to physical eigenfields v = M^{-1/2} u.
Which walls kill and which reflect is the domain's decision: assembly reads
its wall code under bc_mode (GridDomain.code), the code the walker reads
too.  Edge conductances and node masses come from the same quarter-cell
bookkeeping (geometry._quarter_presence), which is what makes rectangle
eigenvalues exact discrete sines/cosines under every wall-label combination.

Eigenvalue convention: B approximates -Laplace, so eigenvalues are >= 0 and
heat flow damps mode j by exp(-lam_j * t).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .geometry import (GridDomain, _masses, _number, _quarter_presence,
                       realized_bc)

__all__ = [
    "SpectralError",
    "LaplaceOperator",
    "SpectralResult",
    "HeatState",
    "assemble_laplacian",
    "solve_eigs",
    "heat_semigroup",
    "survival_profile",
    "zeta_bound",
]

_log = logging.getLogger("eigenwalk")


class SpectralError(RuntimeError):
    """Eigensolve missed its residual, an operator could not be assembled
    from the domain, or a result's condition does not fit the call."""


@dataclass(frozen=True)
class LaplaceOperator:
    """Standardized symmetric discretization of -Laplace on a domain.

    ``matrix`` acts on mass-weighted coordinates u = M^{1/2} v where v is
    the physical node field; ``sqrt_mass`` converts back.  ``iy``/``ix``
    give the lattice position of each matrix row (row-major active order).
    ``bc_mode`` is the condition its walls realize, not the label passed.
    """

    matrix: sparse.csr_matrix
    sqrt_mass: np.ndarray
    masses: np.ndarray
    iy: np.ndarray
    ix: np.ndarray
    dom: GridDomain
    bc_mode: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def field_to_vector(self, f):
        """Restrict a (ny, nx) grid array to active nodes (physical v)."""
        f = np.asarray(f, dtype=float)
        if f.shape != self.dom.mask.shape:
            raise ValueError(f"field shape {f.shape} does not match grid "
                             f"{self.dom.mask.shape}")
        return f[self.iy, self.ix]

    def vector_to_field(self, v) -> np.ndarray:
        """Embed an active-node vector into a (ny, nx) array, zero outside."""
        out = np.zeros(self.dom.mask.shape)
        out[self.iy, self.ix] = v
        return out


@dataclass(frozen=True)
class SpectralResult:
    """Eigenpairs of a LaplaceOperator, ascending.

    Eigenfields are (ny, nx) arrays, zero off-domain, normalized to
    h^2 * sum(f^2) = 1, with deterministic sign conventions (ground field
    max positive; second Neumann field negative at the leftmost active
    node).  ``residuals[j]`` is ||B u - lam u||_2 / ||u||_2 in standardized
    coordinates.  ``bc_mode`` is the condition the walls realize.
    """

    eigenvalues: np.ndarray
    eigenfields: tuple
    residuals: np.ndarray
    bc_mode: str
    operator: LaplaceOperator = field(repr=False)

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    @property
    def dom(self) -> GridDomain:
        return self.operator.dom


@dataclass(frozen=True)
class HeatState:
    """Heat evolution snapshot: field approximates exp(t * Laplace) f0.

    ``truncation_bound`` dominates the dropped tail: the component of f0
    outside the computed eigenbasis evolves with norm at most this value
    (it uses the last computed eigenvalue in place of the first dropped
    one, which can only overstate the bound).
    """

    t: float
    field: np.ndarray
    bc_mode: str
    truncation_bound: float


# ---------------------------------------------------------------------------
# assembly


def assemble_laplacian(dom: GridDomain, bc_mode: str = "mixed") -> LaplaceOperator:
    """Build the standardized symmetric -Laplace matrix for a domain.

    ``bc_mode='dirichlet'`` or ``'neumann'`` force that condition on every
    wall; ``'mixed'`` (default) uses the per-wall labels the domain was
    built with.  The operator's ``bc_mode`` is the condition those walls
    realize (geometry.realized_bc), whichever label was passed.  The
    matrix is exactly symmetric and positive semidefinite; pure-Neumann
    operators annihilate the constant weighted by sqrt-mass.

    Entries: a lattice edge between active nodes contributes conductance
    w in {1/2, 1} (one half per backing quarter cell), a Dirichlet wall
    adds w to the diagonal of its node, and a Neumann wall contributes
    nothing.  Which neighbors are open and which walls are Dirichlet is
    read from the domain's wall code under bc_mode (GridDomain.code).
    Masses are the quarter-cell areas.  On an all-Dirichlet domain they
    are h^2 except at nodes whose quarter cell a re-entrant corner cuts
    off (0.75*h^2, with half-conductance edges along that quarter); away
    from those nodes B is the textbook 5-point stencil with diagonal 4/h^2.

    B is built in one pass, straight into CSR, and is exactly symmetric
    because each edge's entry is computed once and written to both
    B[a, b] and B[b, a]: with s = m^{-1/2}, it is -w*(s_a*s_b).  As w is
    1/2 or 1, scaling by it is exact, so this is also the float that
    scaling K by diag(s) on both sides and averaging with the transpose
    gives.  The diagonal entry of node a is (s_a*d_a)*s_a, d_a its summed
    conductances (sums of halves, so exact in any order).
    """
    mask = dom.mask
    code = dom.code(bc_mode)
    quarters = _quarter_presence(mask, code)
    masses = _masses(quarters, dom.h)

    idx = np.full(mask.shape, -1, dtype=np.int64)
    iy, ix = np.nonzero(mask)
    n = iy.size
    idx[iy, ix] = np.arange(n)

    m = masses[iy, ix]
    if (m <= 0).any():
        j = int(np.argmax(m <= 0))
        raise SpectralError(
            f"active node (row {iy[j]}, column {ix[j]}) of {dom.name!r} holds "
            f"no quarter cell under bc_mode={bc_mode!r}, so its "
            f"finite-volume mass is zero; the domain is under-resolved at "
            f"its boundary there")
    s = 1.0 / np.sqrt(m)

    # a row's entries in column order (row-major node order): the -y
    # neighbor, the -x neighbor, the node itself, +x, +y; a slot with no
    # entry keeps column -1
    cols = np.full((n, 5), -1, dtype=np.int64)
    vals = np.zeros((n, 5))
    diag = np.zeros(n)

    def add_edges(a, b, w, slot_a, slot_b):
        keep = w > 0
        a, b, w = a[keep], b[keep], w[keep]
        cols[a, slot_a], cols[b, slot_b] = b, a
        vals[a, slot_a] = vals[b, slot_b] = -w * (s[a] * s[b])
        diag[:] += np.bincount(a, w, n) + np.bincount(b, w, n)

    # x-edges: both endpoints active, conductance from the two half-faces
    ay, ax = np.nonzero(mask[:, :-1] & mask[:, 1:])
    up = (quarters[(1, 1)][ay, ax] & quarters[(-1, 1)][ay, ax + 1])
    dn = (quarters[(1, -1)][ay, ax] & quarters[(-1, -1)][ay, ax + 1])
    add_edges(idx[ay, ax], idx[ay, ax + 1], 0.5 * up + 0.5 * dn, 3, 1)

    # y-edges
    ay, ax = np.nonzero(mask[:-1, :] & mask[1:, :])
    rt = (quarters[(1, 1)][ay, ax] & quarters[(1, -1)][ay + 1, ax])
    lt = (quarters[(-1, 1)][ay, ax] & quarters[(-1, -1)][ay + 1, ax])
    add_edges(idx[ay, ax], idx[ay + 1, ax], 0.5 * rt + 0.5 * lt, 4, 0)

    # Dirichlet walls pin a ghost value of zero one lattice step out; the
    # ghost edge keeps its diagonal contribution.  Quarter pairs flanking
    # each direction: +x, -x, +y, -y.
    flank = {0: ((1, 1), (1, -1)), 1: ((-1, 1), (-1, -1)),
             2: ((1, 1), (-1, 1)), 3: ((1, -1), (-1, -1))}
    for d in range(4):
        wy, wx = np.nonzero(code & (16 << d))
        qa, qb = flank[d]
        w = 0.5 * quarters[qa][wy, wx] + 0.5 * quarters[qb][wy, wx]
        diag += np.bincount(idx[wy, wx], w, n)

    has = diag != 0
    cols[has, 2] = np.nonzero(has)[0]
    vals[:, 2] = (s * diag) * s
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    B = sparse.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))
    return LaplaceOperator(matrix=B, sqrt_mass=np.sqrt(m), masses=m, iy=iy,
                           ix=ix, dom=dom, bc_mode=realized_bc(mask, code))


# ---------------------------------------------------------------------------
# eigensolve


def _residuals(B, lam, U):
    R = B @ U - U * lam[np.newaxis, :]
    return np.linalg.norm(R, axis=0) / np.linalg.norm(U, axis=0)


def _shift_invert(B, sigma: float) -> LinearOperator:
    """x -> (B - sigma I)^{-1} x for eigsh's OPinv.  B is symmetric, so the
    factor takes the symmetric minimum-degree ordering of A^T + A, which
    fills far less than the COLAMD ordering eigsh would pick.  Only the
    operator is returned, so the factor dies with it when eigsh returns."""
    shifted = (B - sigma * sparse.identity(B.shape[0], format="csr")).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
    return LinearOperator(B.shape, matvec=lu.solve, dtype=B.dtype)


def _mirror(op: LaplaceOperator):
    """(axis, P) for the first lattice mirror B commutes with, left-right
    ('x': ix -> nx-1-ix) before up-down ('y'), or None.  P[i] is the row
    of node i's image.  A mirror counts only if every active node maps to
    an active node and B[P][:, P] equals B entry for entry: with no
    tolerance, that one test covers the mask, the wall code and the
    masses."""
    idx = np.full(op.dom.mask.shape, -1, dtype=np.int64)
    idx[op.iy, op.ix] = np.arange(op.n)
    B = op.matrix
    for axis, image in (("x", idx[:, ::-1]), ("y", idx[::-1, :])):
        P = image[op.iy, op.ix]
        if (P >= 0).all() and (B[P][:, P] != B).nnz == 0:
            return axis, P
    return None


def _parity_bases(P):
    """Orthonormal sparse bases (Q_even, Q_odd) of the vectors the mirror
    permutation P keeps and negates: a column (e_i + e_Pi)/sqrt(2),
    respectively (e_i - e_Pi)/sqrt(2), per mirrored pair i < P[i], and in
    Q_even a column e_i per node on the mirror line (P[i] == i)."""
    n = P.size
    i = np.arange(n)
    a = i[i < P]
    b = P[a]
    line = i[i == P]
    m = a.size
    r = math.sqrt(0.5)
    pair = np.arange(m)
    Qe = sparse.csc_matrix(
        (np.concatenate([np.full(2 * m, r), np.ones(line.size)]),
         (np.concatenate([a, b, line]),
          np.concatenate([pair, pair, m + np.arange(line.size)]))),
        shape=(n, m + line.size))
    Qo = sparse.csc_matrix(
        (np.concatenate([np.full(m, r), np.full(m, -r)]),
         (np.concatenate([a, b]), np.concatenate([pair, pair]))),
        shape=(n, m))
    return Qe, Qo


def solve_eigs(op: LaplaceOperator, k: int = 12, seed: int = 0,
               residual_tol: float = 1e-8) -> SpectralResult:
    """Lowest k eigenpairs of the operator, residual-certified.

    Deterministic for a fixed seed (it only sets the start vector) and a
    fixed BLAS thread count.  Problems of at most max(4k, 256) nodes are
    solved densely.  Larger ones are split into parity blocks, and each
    block goes through shift-inverted Lanczos (eigsh), shifted to
    sigma = -1/L^2 with L the diagonal of the domain's bounding box: just
    below the spectrum at the domain's own scale, so the wanted eigenvalues
    of the inverse stay far apart (a shift at the scale of the largest
    entry, ~4/h^2, bunches them).  eigsh stops at the relative
    tolerance residual_tol/100, and its Ritz pairs are taken as they come.

    When B commutes exactly with a lattice mirror (see _mirror) and its
    odd half is too large to be solved densely, the blocks are the
    mirror's even and odd halves, Q_e^T B Q_e and Q_o^T B Q_o (see
    _parity_bases); the lowest k of their union are the lowest k of B.  A
    mirror separates the near-degenerate even/odd pairs of two-lobed
    domains, which slow Lanczos on B, and each half solves with a factor
    of half the size.  Eigenvalues shared by the two halves (exactly
    degenerate pairs, as on a four-armed octopus) come back in this
    parity-adapted basis: one field even under the mirror, one odd.
    Otherwise B itself is the one block, asked for k pairs.

    Each half is first asked for its share, min(k, ceil(k/2) + 2) pairs
    (8 at k = 12).  A half that returned fewer than k pairs, all of them
    among the lowest k of the union, may hold more of them, so it is
    solved again for k; a half with a pair outside the lowest k holds no
    more, as its unreturned eigenvalues lie above that pair.  As
    2 * share > k, at most one half is solved again.  The trust is the
    one the k-pair solves needed: that eigsh returns the lowest pairs of
    each block it is asked for.  Nothing proves that the k pairs are the
    lowest k of B; the residual check proves each is an eigenpair.

    The route (dense, Lanczos, or Lanczos on x- or y-mirror halves, with
    the sizes, sigma and the pairs asked of each half) and any half solved
    again are logged at DEBUG to the "eigenwalk" logger.  A block whose
    Lanczos run does not converge raises SpectralError naming the block
    and the pairs it was asked for.  Residuals are measured on the full
    B either way; if any misses residual_tol * (1 + lam), or is NaN,
    raises SpectralError quoting it.  k must be a positive integer, seed
    an integer >= 0 and residual_tol positive, else ValueError up front.
    """
    k = _number("k", k, integer=True)
    _number("seed", seed, integer=True, least=0)
    residual_tol = _number("residual_tol", residual_tol)
    B = op.matrix
    n = op.n
    if k > n:
        raise ValueError(f"asked for {k} eigenpairs of a {n}-node operator")

    name = op.dom.name
    dense_max = max(4 * k, 256)
    if n <= dense_max:
        _log.debug("solve_eigs %r: dense, n=%d", name, n)
        lam, U = scipy.linalg.eigh(B.toarray(), subset_by_index=[0, k - 1])
    else:
        x0, y0, x1, y1 = op.dom.bbox
        sigma = -1.0 / ((x1 - x0) ** 2 + (y1 - y0) ** 2)
        v0 = np.random.default_rng(seed).standard_normal(n)
        mirror = _mirror(op)
        halves = _parity_bases(mirror[1]) if mirror else None
        if halves is None or halves[1].shape[1] <= dense_max:  # odd: smaller
            _log.debug("solve_eigs %r: Lanczos, n=%d, sigma=%.6g",
                       name, n, sigma)
            blocks, share = [(B, None, f"{name!r}")], k
        else:
            share = min(k, -(-k // 2) + 2)
            route = f"solve_eigs {name!r}: Lanczos on {mirror[0]}-mirror halves"
            _log.debug("%s, n_even=%d, n_odd=%d, sigma=%.6g, %d pairs asked "
                       "of each", route, halves[0].shape[1],
                       halves[1].shape[1], sigma, share)
            blocks = [((Q.T @ B @ Q).tocsr(), Q,
                       f"the {part} {mirror[0]}-mirror half of {name!r}")
                      for Q, part in zip(halves, ("even", "odd"))]

        def solve(A, Q, what, pairs):  # Q: A's basis, None for B itself
            try:
                lam_b, V = eigsh(A, k=pairs, sigma=sigma, which="LM",
                                 v0=v0 if Q is None else Q.T @ v0,
                                 tol=residual_tol / 100,
                                 maxiter=max(1000, 20 * k),
                                 OPinv=_shift_invert(A, sigma))
            except ArpackNoConvergence as exc:
                raise SpectralError(
                    f"Lanczos converged only {len(exc.eigenvalues)}/{pairs} "
                    f"eigenpairs on {what} (n={A.shape[0]}); try fewer "
                    f"pairs or a coarser grid") from exc
            return lam_b, V if Q is None else Q @ V

        solved = [solve(*block, share) for block in blocks]
        if share < k:
            # a half whose every pair is among the lowest k of the union
            # may hold more of them, so it is solved again for k; one half
            # at most, as 2 * share > k
            lowest = np.argsort(np.concatenate([s[0] for s in solved]),
                                kind="stable")[:k]
            for i, block in enumerate(blocks):
                if np.isin(np.arange(i * share, (i + 1) * share),
                           lowest).all():
                    _log.debug("%s: all %d pairs of %s are among the lowest "
                               "%d; solving it again for %d", route, share,
                               block[2], k, k)
                    solved[i] = solve(*block, k)
        lam = np.concatenate([s[0] for s in solved])
        U = np.hstack([s[1] for s in solved])

    order = np.argsort(lam, kind="stable")[:k]
    lam, U = lam[order], U[:, order]
    lam = np.where(np.abs(lam) < 1e-12 * max(1.0, abs(lam[-1])), 0.0, lam)

    res = _residuals(B, lam, U)
    worst = float(np.max(res / (1.0 + np.abs(lam))))
    if not worst <= residual_tol:
        j = int(np.argmax(res / (1.0 + np.abs(lam))))
        raise SpectralError(
            f"eigensolve residual {res[j]:.3e} at eigenvalue {lam[j]:.6g} "
            f"exceeds {residual_tol:g}*(1+lam) on {op.dom.name!r}")

    h = op.dom.h
    fields = np.ascontiguousarray(U.T) / op.sqrt_mass  # a row per field
    fields /= np.sqrt(h * h * np.vecdot(fields, fields))[:, np.newaxis]
    _fix_signs(op, fields)
    grids = np.zeros((k, *op.dom.mask.shape))
    grids[:, op.iy, op.ix] = fields
    grids.setflags(write=False)
    lam.setflags(write=False)
    res.setflags(write=False)
    return SpectralResult(eigenvalues=lam, eigenfields=tuple(grids),
                          residuals=res, bc_mode=op.bc_mode, operator=op)


def _fix_signs(op, fields):
    """Deterministic orientation: ground field has positive max; the
    second pure-Neumann field is negative at the leftmost active node
    (bottom-most on ties); every other field makes its first significant
    active-order component positive."""
    for j, v in enumerate(fields):
        if j == 0:
            flip = v.max() < -v.min()
        elif j == 1 and op.bc_mode == "neumann":
            flip = _first_significant(v[np.lexsort((op.iy, op.ix))],
                                      1e-10) > 0
        else:
            flip = _first_significant(v, 1e-8) < 0
        if flip:
            v *= -1.0


def _first_significant(w, rel: float) -> float:
    """First entry of w larger in magnitude than rel times its largest
    magnitude, or 0.0 if there is none."""
    big = np.abs(w) > rel * np.abs(w).max()
    return float(w[np.argmax(big)]) if big.any() else 0.0


# ---------------------------------------------------------------------------
# heat flow


def heat_semigroup(result: SpectralResult, f0, t: float) -> HeatState:
    """Evolve f0 by the heat semigroup using the computed eigenbasis.

    f0 is a (ny, nx) array, ignored off the domain, and t a time >= 0;
    NaN and infinity in either raise ValueError.  f0 is projected onto
    the fields with the mass-weighted inner product.  The dropped
    component is bounded by exp(-lam_k * t) * ||f0 - proj f0||, its mass
    norm, reported as HeatState.truncation_bound.
    """
    t = _number("t", t, least=0)
    op = result.operator
    f0_vec = op.field_to_vector(f0)
    if not np.isfinite(f0_vec).all():
        raise ValueError("f0 has non-finite values on the domain")
    fields = np.stack([g[op.iy, op.ix] for g in result.eigenfields])
    weighted = op.masses * fields
    coeffs = (weighted @ f0_vec) / np.vecdot(weighted, fields)
    tail = f0_vec - coeffs @ fields
    tail_norm = math.sqrt(float(np.sum(op.masses * tail * tail)))
    lam = result.eigenvalues
    bound = math.exp(-float(lam[-1]) * t) * tail_norm
    g = op.vector_to_field((coeffs * np.exp(-lam * t)) @ fields)
    g.setflags(write=False)
    return HeatState(t=t, field=g, bc_mode=result.bc_mode,
                     truncation_bound=bound)


def survival_profile(result: SpectralResult, t: float) -> HeatState:
    """Probability that heat started uniformly has not yet left: the heat
    evolution of the constant 1 under absorbing walls.  Requires a
    spectrum whose every wall kills (bc_mode 'dirichlet'), however it was
    assembled, else SpectralError; values lie in [0, 1] up to truncation."""
    if result.bc_mode != "dirichlet":
        raise SpectralError("survival profile needs a Dirichlet spectrum, "
                            f"got bc_mode={result.bc_mode!r}")
    ones = np.ones(result.dom.mask.shape)
    return heat_semigroup(result, ones, t)


# ---------------------------------------------------------------------------
# closed-form companions


def zeta_bound(n: int, eps: float) -> float:
    """Dimensional constant zeta_n(eps) multiplying exp(-(1-eps)*lam_1*t)
    in the uniform survival upper bound:

    zeta_n(s) = e^{n/4} * (sqrt(2) / (8n)^{n/4})
                * sqrt(Gamma(n) / Gamma(n/2)) * (1 + 1/sqrt(s))^{n/2}

    so zeta_2(1) ~= 1.1658 and smaller eps buys a slower certified decay
    rate at the price of a larger constant.
    """
    n, eps = _number("n", n, integer=True), _number("eps", eps)
    lg = math.lgamma(n) - math.lgamma(n / 2.0)
    return (math.exp(n / 4.0) * math.sqrt(2.0) / (8.0 * n) ** (n / 4.0)
            * math.exp(0.5 * lg) * (1.0 + 1.0 / math.sqrt(eps)) ** (n / 2.0))
