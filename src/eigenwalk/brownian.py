"""Killed, reflected, and mixed Brownian paths on grid domains.

One lattice walk serves three estimators: `survival_probability`, the
probability q_t(x) that a path from x is alive at time t;
`feynman_kac`, which checks E_x[phi(B_t); tau > t] = exp(-lam t) phi(x)
for an eigenpair; and `mixed_eigenvalue_via_decay`, the principal
eigenvalue from the decay of survival.

Increments are Euler steps with per-coordinate variance 2*dt, matching the
heat semigroup convention used by the spectral module (mode j decays like
exp(-lam_j t)).  Boundary geometry is read from the same per-cell wall code
(GridDomain.code) the finite-volume operator is assembled from, so Monte
Carlo and eigensolve answers are comparable without calibration fudges:

* a Dirichlet wall kills on the ghost-node line, one full lattice step
  beyond the last active node (where the discrete eigenfields vanish);
* a Neumann wall reflects specularly about the node line through the
  boundary nodes (whose finite-volume cells are half-width).

Each step resolves the proposed displacement by walking the lattice cell
by cell, in passes over the directions +x, -x, +y, -y (x before y and +
before -, the documented tie-break).  A path's offset past its cell's node
along a direction is compared with one threshold per cell and direction
(`_Kernel.thr`): past 1/2 toward an active neighbour it walks one cell
over, past 0 toward a Neumann wall it folds about the node line, past 1
toward a Dirichlet wall it dies beyond the ghost line.  A path is resolved
after a pass in which it does nothing.  Walks through open cells are not
limited; a path still moving after _MAX_FOLDS folds settles on the node
of the cell it has reached, and the estimate's bias note counts such
path-steps.  Most paths are far from any wall, and for them the walk only
crosses free cells (active, with four active neighbours).  Each cell's
clearance (`_Kernel.clear`), the chessboard distance to the nearest cell
that is not free, tells when that holds: a path whose destination is free
and no farther from its start cell than that cell's clearance, such as a
move of one cell between two free cells, moves straight there (the fast
path, `_free_step`).  Every other path goes through the cell walk, and the
walk's DEBUG line counts those path-steps.

The pass order is part of the rule, and it breaks mirror symmetry where a
step leaves a narrow neck diagonally: x before y and + before - decides
which wall line such a path folds about, so a step and its mirror image
can end apart (3 of 20000 single steps of 2.5 cells rms from the nodes of
the r = 40 dumbbell).  The rule is kept.  It is deterministic and local,
it changes only steps of several cells, which the walker's default dt
(at most h^2/4, a step of 0.7 cells rms) seldom takes, and any other order
would change every pinned estimate.

Steps are taken in chunks of _CHUNK, which also end at every survival
checkpoint and at the horizon.  A chunk draws its steps' randomness in the
order below and runs every live path's position through them with the
same float64 additions a step makes, keeping the largest and smallest
coordinate along each axis.  A path flies through the chunk when that
excursion from its chunk-start cell's node stays below the cell's
clearance less 1/2 on both axes, and its last position is no half-cell
tie.  Then every cell the step rule would visit lies closer to the start
cell than the clearance and is free: open on all four sides, with no
Dirichlet bit, so no kill, fold or bridge test touches the path and no
step moves its position.  It ends on its last position and that
position's cell, floor(f - 1/2) + 1 per axis, as step by step.  The test
is computed in floating point, but rounding is monotone, so a computed
excursion below clearance - 1/2 is an exact one.  Every other path is
replayed step by step from the chunk's saved draws through the step rule
(`_step`, the one place it is written) and put back in its slot.  The
DEBUG line counts the path-steps in flight too.

Between-step absorption is recovered by the Brownian bridge correction: a
step ending at distances d1, d2 from a kill line registers a crossing with
probability exp(-d1*d2/dt), evaluated only for paths whose cells border a
Dirichlet wall.  One uniform per path per step is always drawn, whether or
not the correction is on, so runs with and without it see identical
trajectories and the corrected kill set contains the uncorrected one path
by path.

One walk carries many start points.  Paths are laid out start-major,
path = start * n_paths + j, and cut into fixed-size batches whose
randomness is keyed by (seed, stream, batch) and reduced in batch order:
estimates are pure functions of (seed, config, domain) regardless of
worker count.  While any of its paths lives, a batch draws two normals
and one uniform per path slot per step, dead slots included, and it keeps
only live paths in its working arrays.  A path's moves therefore depend
on its batch and slot alone, not on which other paths are still alive.

Every estimator's `threads` is its number of worker processes
(_rng.map_batches forks the extra ones); the same bits come out at any
count.  Forking is not safe from several threads at once, so do not call
estimators with threads > 1 from more than one thread.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._rng import batch_rng, fill_normals, map_batches
from .geometry import GridDomain, active_cell
from .spectral import SpectralResult

__all__ = [
    "BrownianError",
    "PathConfig",
    "PathEstimate",
    "FeynmanKacReport",
    "MixedDecayReport",
    "survival_probability",
    "feynman_kac",
    "mixed_eigenvalue_via_decay",
]

BATCH_PATHS = 16384
_WALK_STREAM = 0x57414C4B  # distinct stream tag; theta's oracle uses its own
_MAX_FOLDS = 8
_CHUNK = 8  # steps per free-flight chunk; measured best on walker-survival
_FREE = 0x0F  # wall code of a cell whose four neighbours are all active
_DIRS = ((0, 1), (0, -1), (1, 1), (1, -1))  # (axis, sign): +x, -x, +y, -y
_BRIDGE_CUTOFF = 45.0  # exp(-45) ~ 3e-20: beyond this the bridge cannot fire
_log = logging.getLogger("eigenwalk")


class BrownianError(RuntimeError):
    """Bad path configuration, time, start point or mode."""


@dataclass(frozen=True)
class PathConfig:
    """Simulation budget for one estimator call.

    Each estimator walks to the horizon it is given (its time t, or the
    last time of its grid); t_max only bounds dt, which must not exceed
    t_max/10, nor a tenth of the horizon it is used for.  dt=None resolves
    per domain to min(h^2/4, horizon/1000), keeping the spatial step below
    the lattice resolution.  The horizon is divided into an integer number
    of steps, at least 10, so the effective dt is the requested one rounded
    to land exactly on the horizon.
    """

    t_max: float
    n_paths: int
    dt: float | None = None
    seed: int = 0
    bridge_correction: bool = True

    def __post_init__(self):
        if not (0 < self.t_max < math.inf):
            raise BrownianError("t_max must be finite and positive")
        if not isinstance(self.n_paths, (int, np.integer)):
            raise BrownianError(f"n_paths must be an integer, got "
                                f"{self.n_paths!r}")
        if self.n_paths < 100:
            raise BrownianError("n_paths must be >= 100")
        if self.dt is not None:
            if not (0 < self.dt < math.inf):
                raise BrownianError("dt must be finite and positive")
            if self.dt > self.t_max / 10:
                raise BrownianError("dt must be <= t_max/10")

    def resolve_steps(self, h: float, horizon: float):
        """(n_steps, dt) for a grid of spacing h; dt snaps to the horizon,
        which must be finite and positive and at least 10 configured dt."""
        if not (0 < horizon < math.inf):
            raise BrownianError(f"time {horizon!r} must be finite and "
                                f"positive")
        if self.dt is not None and self.dt > horizon / 10:
            raise BrownianError(f"dt={self.dt!r} exceeds a tenth of the "
                                f"time {horizon!r}; pass a smaller dt")
        want = self.dt if self.dt is not None else min(h * h / 4,
                                                      horizon / 1000)
        n_steps = max(10, int(round(horizon / want)))
        return n_steps, horizon / n_steps


@dataclass(frozen=True)
class PathEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    bias_note: str


@dataclass(frozen=True)
class FeynmanKacReport:
    mean: float
    stderr: float
    exact: float
    z_score: float
    n_paths: int
    seed: int
    bias_note: str


@dataclass(frozen=True)
class MixedDecayReport:
    lambda_hat: float
    stderr: float
    fit_residual: float
    t_grid: tuple
    survival: tuple
    seed: int
    bias_note: str


# ---------------------------------------------------------------------------
# lattice kernel


class _Kernel:
    """Immutable per-(domain, bc_mode) tables the step loop reads, built
    by each estimator call.

    `thr` is the one threshold table of the step rule, (4, cells) for the
    directions +x, -x, +y, -y: the offset past its node a path must exceed
    before that direction acts.  It is 1/2 toward an open neighbour (walk
    one cell over), 1 at a Dirichlet wall (die past the ghost line) and 0
    at a Neumann wall (fold about the node line).  The bridge correction
    reads the ghost lines (`ghost`), and the free-flight test and the
    fast path the clearance (`clear`).
    """

    def __init__(self, dom: GridDomain, bc_mode: str):
        self.h = dom.h
        self.origin = dom.origin
        self.mask = dom.mask
        self.ny, self.nx = dom.mask.shape
        # the domain's wall code under bc_mode, flat: cell (cy, cx) is
        # entry cy * nx + cx
        code = dom.code(bc_mode)
        self.code = code.ravel()
        self.any_dirichlet = bool((code >> 4).any())
        d = np.arange(4)[:, None]
        self.thr = 0.5 * ((self.code >> d) & 1) + ((self.code >> (d + 4)) & 1)
        # the Dirichlet ghost line each cell kills beyond, per direction
        # (+x, -x, +y, -y), and +-inf where that side does not kill
        cy, cx = np.divmod(np.arange(self.code.size), self.nx)
        kills = self.thr == 1.0
        self.ghost = tuple(np.where(kills[dir_], (cx, cy)[axis] + sgn,
                                    sgn * np.inf)
                           for dir_, (axis, sgn) in enumerate(_DIRS))
        # imported here: at module level it slows `import eigenwalk`
        from scipy import ndimage

        # the clearance: chessboard distance to the nearest cell that is
        # inactive or lacks an active neighbour.  A path that strays less
        # than clear - 1/2 from its cell's node (see _walk_batch), or steps
        # to a free cell no farther than clear (see _free_step), crosses
        # only free cells
        self.clear = ndimage.distance_transform_cdt(
            code == _FREE, metric="chessboard").ravel()

    def start_table(self, points):
        """(fx, fy, cx, cy) arrays of shape (S,) for S start points; raises
        BrownianError unless every point is inside the domain."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        fx, fy = ((pts - self.origin) / self.h).T
        cx, cy, inside = active_cell(self.mask, self.origin, self.h,
                                     pts[:, 0], pts[:, 1])
        if not inside.all():
            x, y = pts[int(np.argmin(inside))]
            raise BrownianError(f"start point ({x:g}, {y:g}) is outside "
                                f"the domain")
        return fx, fy, cx, cy

    def kill_distance(self, fx, fy, cell):
        """Distance (physical units) to the nearest Dirichlet ghost line
        bordering each path's flat cell cy * nx + cx; inf where the cell has
        no kill wall."""
        px, mx, py, my = (g.take(cell) for g in self.ghost)
        d = np.minimum(np.minimum(px - fx, fx - mx),
                       np.minimum(py - fy, fy - my))
        return d * self.h


def _resolve_step(kern: _Kernel, fx, fy, cx, cy):
    """Walk each proposed position to its resolved state.

    fx, fy hold the proposals (fractional lattice units); cx, cy the cell
    each path occupied before the step (active).  Each pass looks at +x,
    -x, +y, -y in turn: a path whose offset past its node along a direction
    exceeds that direction's threshold (`_Kernel.thr`) walks one cell over,
    dies beyond the Dirichlet ghost line or folds about the Neumann node
    line.  A path walks through open cells as far as it has to; one still
    moving after _MAX_FOLDS folds is a straggler: it settles on the node of
    the cell it has reached, which is active and was reached without
    crossing a wall.  Mutates all four in place; returns a boolean array
    marking paths killed beyond a ghost line, and the number of
    stragglers.
    """
    thr, nx = kern.thr, kern.nx
    killed = np.zeros(fx.shape, dtype=bool)
    folds = np.zeros(fx.shape, dtype=np.int64)
    j = np.arange(fx.size)
    stragglers = 0
    while j.size:
        f, c = (fx[j], fy[j]), (cx[j], cy[j])
        cell = c[1] * nx + c[0]
        acted = np.zeros(j.size, dtype=bool)
        folded = dead = False
        for dir_, (axis, sgn) in enumerate(_DIRS):  # x first, + before -
            fa, ca, t = f[axis], c[axis], thr[dir_]
            a = ((fa - ca if sgn > 0 else ca - fa) > t.take(cell)).nonzero()[0]
            if not a.size:
                continue
            acted[a] = True
            ta = t.take(cell.take(a))
            walk = a[ta == 0.5]
            ca[walk] += sgn
            cell[walk] += sgn if axis == 0 else sgn * nx
            if walk.size < a.size:
                fold = a[ta == 0.0]
                fa[fold] = 2.0 * ca[fold] - fa[fold]
                folds[j[fold]] += 1
                folded |= bool(fold.size)
                kj = j[a[ta == 1.0]]
                killed[kj] = True
                dead |= bool(kj.size)
        fx[j], fy[j] = f
        cx[j], cy[j] = c
        moving = acted & ~killed[j] if dead else acted
        if folded:
            out = moving & (folds[j] >= _MAX_FOLDS)
            settle = j[out]
            fx[settle], fy[settle] = cx[settle], cy[settle]
            stragglers += settle.size
            moving &= ~out
        j = j[moving]
    return killed, stragglers


def _free_step(kern: _Kernel, fx, fy, cx, cy, clear):
    """Free-cell fast path: the cells proposals (fx, fy) from cells
    (cx, cy) settle in, and the indices of the paths it does not cover.

    Along each axis _resolve_step walks while |f - c| > 1/2, through open
    cells ending at floor(f - 1/2) + 1 (f - 1/2 is exact for f >= 1/4, and
    every free cell has index >= 1).  If every cell on the way is open
    toward the next and the destination is free, that is all it does: it
    never folds, it leaves the position alone, and its last pass finds
    nothing to do.  A destination whose chessboard distance from the start
    cell is at most the start cell's clearance, and which is itself free,
    guarantees that.  The walk steps at most one cell per axis and pass, x
    first, so every cell it passes lies closer than the clearance and is
    free, except the cell it enters the destination from when the
    destination is the clearance away along both axes; there the side it
    came from is open, and it steps on along y.  This covers a move of one
    cell from a free cell into a free cell.  Ties, with f - 1/2 integral,
    stay on the start cell's side and are left out.
    """
    gx, gy = fx - 0.5, fy - 0.5
    tx, ty = np.floor(gx), np.floor(gy)
    nx_ = tx.astype(np.int64) + 1
    ny_ = ty.astype(np.int64) + 1
    reach = np.maximum(np.abs(nx_ - cx), np.abs(ny_ - cy))
    # far proposals point off the grid; edge cells are never free, so their
    # reach exceeds the start cell's clearance
    free = kern.code.take(ny_ * kern.nx + nx_, mode="clip") == _FREE
    slow = np.flatnonzero((reach > clear) | ~free | (tx == gx) | (ty == gy))
    return nx_, ny_, slow


def _step(kern: _Kernel, fx, fy, cx, cy, z, u, slot, sigma: float,
          dt: float, bridge: bool):
    """One Euler step of the paths in (fx, fy, cx, cy): the step rule.

    z holds the paths' two normals (float32), u the step's uniforms for
    every batch slot and slot the paths' slots.  Moves fx, fy in place and
    returns the new cells (cx, cy), a mask of the paths killed on the step
    (beyond a ghost line, or by the bridge correction), the number of
    path-steps that went through the cell walk and the stragglers.
    """
    nx, code = kern.nx, kern.code
    cell = cy * nx + cx
    if bridge:
        wi = np.flatnonzero(code.take(cell) >> 4)  # any Dirichlet wall
        d1 = kern.kill_distance(fx[wi], fy[wi], cell.take(wi))
    # float64 products: float32 * sigma would round in float32
    fx += np.multiply(z[0], sigma, dtype=float)
    fy += np.multiply(z[1], sigma, dtype=float)

    nx_, ny_, slow = _free_step(kern, fx, fy, cx, cy, kern.clear.take(cell))
    dead = np.zeros(fx.size, dtype=bool)
    lost = 0
    if slow.size:
        sfx, sfy, scx, scy = fx[slow], fy[slow], cx[slow], cy[slow]
        killed, lost = _resolve_step(kern, sfx, sfy, scx, scy)
        fx[slow], fy[slow] = sfx, sfy
        nx_[slow], ny_[slow] = scx, scy
        dead[slow[killed]] = True

    if bridge and wi.size:
        end = ny_.take(wi) * nx + nx_.take(wi)
        both = ~dead[wi] & ((code.take(end) >> 4) != 0)
        wi, d1 = wi[both], d1[both]
        prod = d1 * kern.kill_distance(fx[wi], fy[wi], end[both])
        cand = prod < _BRIDGE_CUTOFF * dt
        if cand.any():
            wc = wi[cand]
            dead[wc[u[slot[wc]] < np.exp(-prod[cand] / dt)]] = True
    return nx_, ny_, dead, slow.size, lost


@dataclass
class _Walk:
    """Batch-reduced outputs of one walk."""

    surv: np.ndarray      # (checkpoints, starts) live-path counts
    fk_sum: float
    fk_sumsq: float
    flown: int            # path-steps taken in free flight
    resolved: int         # path-steps that went through _resolve_step
    stragglers: int       # path-steps _resolve_step settled on their cell


def _walk_batch(kern: _Kernel, rng, starts, sid, n_steps: int, dt: float,
                bridge: bool, checkpoints=(), fk_grid=None):
    """Simulate one batch; the only consumer of path increments.

    starts holds (fx, fy, cx, cy) per start point and sid the start of
    each path.  Per step and batch slot: two normal increments and one
    uniform, always in that order and drawn for dead slots too while any
    path lives, so every estimator mode sees identical trajectories.  The
    working arrays hold live paths only; `slot` maps them back to their
    batch slots.  The batch advances in chunks of up to _CHUNK steps that
    end at every checkpoint: paths that stay clear of every non-free cell
    fly through a chunk, the others are replayed step by step (see the
    module docstring).
    """
    size = sid.size
    sigma = math.sqrt(2.0 * dt) / kern.h  # per-coordinate, lattice units
    fx, fy, cx, cy = (a[sid] for a in starts)
    slot = np.arange(size)
    ck = {int(s): i for i, s in enumerate(checkpoints)}
    ends = sorted({s for s in ck if 0 < s < n_steps} | {n_steps})
    surv = np.zeros((len(ck), starts[0].size))
    bridge = bridge and kern.any_dirichlet
    z = np.empty((_CHUNK, 2, size), dtype=np.float32)
    u = np.empty((_CHUNK, size))
    zs = np.empty(2 * size, dtype=np.float32)
    flown = resolved = stragglers = 0

    step = 0
    for end in ends:
        while step < end and slot.size:  # later draws would feed no path
            k = min(_CHUNK, end - step)
            n = slot.size
            for i in range(k):  # per step: two normals, then one uniform
                if n == size:
                    fill_normals(rng, z[i].reshape(-1))
                else:  # keep the live paths' normals only; "clip" (the
                    # slots are in range) writes to out without a buffer
                    fill_normals(rng, zs)
                    np.take(zs.reshape(2, size), slot, axis=1,
                            out=z[i, :, :n], mode="clip")
                rng.random(out=u[i])
            zl = z[:k, :, :n]

            # free flight: the step rule's float64 additions, and the
            # excursion along each axis
            gx, gy = fx.copy(), fy.copy()
            hix, hiy = np.full((2, n), -np.inf)
            lox, loy = np.full((2, n), np.inf)
            for i in range(k):
                gx += np.multiply(zl[i, 0], sigma, dtype=float)
                gy += np.multiply(zl[i, 1], sigma, dtype=float)
                np.maximum(hix, gx, out=hix)
                np.minimum(lox, gx, out=lox)
                np.maximum(hiy, gy, out=hiy)
                np.minimum(loy, gy, out=loy)
            room = kern.clear.take(cy * kern.nx + cx) - 0.5
            hx, hy = gx - 0.5, gy - 0.5
            tx, ty = np.floor(hx), np.floor(hy)
            flies = ((hix - cx < room) & (cx - lox < room)
                     & (hiy - cy < room) & (cy - loy < room)
                     & (tx != hx) & (ty != hy))  # no half-cell tie
            rep = np.flatnonzero(~flies)
            flown += (n - rep.size) * k
            ncx, ncy = tx.astype(np.int64) + 1, ty.astype(np.int64) + 1

            # the others, step by step from the chunk's start
            dead = np.zeros(n, dtype=bool)
            if rep.size:
                dead[rep] = True
                rfx, rfy, rcx, rcy, rslot = (a.take(rep) for a in
                                             (fx, fy, cx, cy, slot))
                for i in range(k):
                    rcx, rcy, died, walked, lost = _step(
                        kern, rfx, rfy, rcx, rcy, zl[i].take(rep, axis=1),
                        u[i], rslot, sigma, dt, bridge)
                    resolved += walked
                    stragglers += lost
                    if died.any():
                        live = np.flatnonzero(~died)
                        rep, rfx, rfy, rcx, rcy, rslot = (
                            a.take(live) for a in (rep, rfx, rfy, rcx, rcy,
                                                   rslot))
                        if not rep.size:
                            break
                gx[rep], gy[rep], ncx[rep], ncy[rep] = rfx, rfy, rcx, rcy
                dead[rep] = False
            fx, fy, cx, cy = gx, gy, ncx, ncy
            if dead.any():
                keep = np.flatnonzero(~dead)
                fx, fy, cx, cy, slot = (a.take(keep) for a in (fx, fy, cx, cy,
                                                               slot))
            step += k
        if end in ck:
            surv[ck[end]] = np.bincount(sid.take(slot),
                                        minlength=surv.shape[1])

    fk_sum = fk_sumsq = 0.0
    if fk_grid is not None:
        # full-length and zero-filled, so the sum runs in slot order
        vals = np.zeros(size)
        vals[slot] = _bilinear(kern, fk_grid, fx, fy)
        fk_sum = float(vals.sum())
        fk_sumsq = float((vals * vals).sum())
    return _Walk(surv, fk_sum, fk_sumsq, flown, resolved, stragglers)


def _bilinear(kern: _Kernel, grid, fx, fy):
    """Interpolate a node field at fractional positions; off-grid clamps.

    Fields are zero on inactive nodes, which is exactly the Dirichlet
    extension; reflected paths never leave the all-active quad."""
    x0 = np.clip(np.floor(fx).astype(np.int64), 0, kern.nx - 2)
    y0 = np.clip(np.floor(fy).astype(np.int64), 0, kern.ny - 2)
    tx = np.clip(fx - x0, 0.0, 1.0)
    ty = np.clip(fy - y0, 0.0, 1.0)
    g = grid
    return ((1 - tx) * (1 - ty) * g[y0, x0] + tx * (1 - ty) * g[y0, x0 + 1]
            + (1 - tx) * ty * g[y0 + 1, x0] + tx * ty * g[y0 + 1, x0 + 1])


def _walk(kern: _Kernel, cfg: PathConfig, starts, n_steps: int, dt: float,
          threads: int = 1, **kw) -> _Walk:
    """Walk cfg.n_paths paths from each start of a start table
    (_Kernel.start_table) in BATCH_PATHS batches.

    The layout is start-major, path = start * cfg.n_paths + j.  Batches are
    keyed by (seed, batch) and reduced in batch order.  The path-steps in
    free flight and through the cell walk and the stragglers, summed over
    the batches and the same at any worker count, are logged at DEBUG to
    the "eigenwalk" logger.
    """
    n_total = cfg.n_paths * starts[0].size
    los = range(0, n_total, BATCH_PATHS)

    def job(b):
        lo = los[b]
        sid = np.arange(lo, min(lo + BATCH_PATHS, n_total)) // cfg.n_paths
        return _walk_batch(kern, batch_rng(cfg.seed, _WALK_STREAM, b), starts,
                           sid, n_steps, dt, cfg.bridge_correction, **kw)

    parts = map_batches(job, len(los), threads)
    walk = _Walk(surv=sum(p.surv for p in parts),
                 fk_sum=sum(p.fk_sum for p in parts),
                 fk_sumsq=sum(p.fk_sumsq for p in parts),
                 flown=sum(p.flown for p in parts),
                 resolved=sum(p.resolved for p in parts),
                 stragglers=sum(p.stragglers for p in parts))
    _log.debug("lattice walk: %d paths from %d starts, %d steps of "
               "dt=%.3g, %d path-steps in free flight, %d path-steps through "
               "the cell walk, %d stragglers settled on their cell", n_total,
               starts[0].size, n_steps, dt, walk.flown, walk.resolved,
               walk.stragglers)
    return walk


def _bias_note(kern: _Kernel, dt: float, walk: _Walk) -> str:
    note = (f"Euler absorption bias O(sqrt(dt)): sqrt(2*dt)="
            f"{math.sqrt(2 * dt):.3e}")
    if walk.stragglers:
        note += (f"; {walk.stragglers} path-steps settled on their cell "
                 f"after {_MAX_FOLDS} folds")
    return note + f"; lattice wall placement within h/2={kern.h / 2:.3e}"


def _mean_stderr(total, total_sq, n):
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / max(1, n - 1))
    return mean, math.sqrt(var / n)


def _start_point(kern: _Kernel, x):
    """The start table of x; raises BrownianError unless x is one point
    inside the domain."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (2,):
        raise BrownianError("start must be a single (x, y) point")
    return kern.start_table(pt)


# ---------------------------------------------------------------------------
# public estimators


def survival_probability(dom: GridDomain, x, t: float, cfg: PathConfig,
                         threads: int = 1) -> PathEstimate:
    """P(path from x not absorbed by time t) under the domain's labels."""
    kern = _Kernel(dom, "mixed")
    start = _start_point(kern, x)
    if t == 0:
        return PathEstimate(mean=1.0, stderr=0.0, n_paths=cfg.n_paths,
                            seed=cfg.seed, bias_note="t=0: survival is 1")
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=t)
    walk = _walk(kern, cfg, start, n_steps, dt, threads,
                 checkpoints=[n_steps])
    alive = walk.surv[0, 0]
    mean, stderr = _mean_stderr(alive, alive, cfg.n_paths)
    return PathEstimate(mean=mean, stderr=stderr, n_paths=cfg.n_paths,
                        seed=cfg.seed, bias_note=_bias_note(kern, dt, walk))


def feynman_kac(dom: GridDomain, result: SpectralResult, x, t: float,
                cfg: PathConfig, mode_index: int = 0,
                threads: int = 1) -> FeynmanKacReport:
    """Monte Carlo check of E_x[phi(path_t) * alive] = exp(-lam t) phi(x).

    Path behavior follows result.bc_mode: killed paths for a Dirichlet
    spectrum, reflected (never killed) for Neumann, per-label for mixed.
    Any dom but result.dom or one with its h, origin, mask and wall code
    under that condition raises BrownianError, even at t = 0.
    The eigenfield is bilinearly interpolated; t=0 returns phi(x) exactly.
    Reading phi that way at the path ends biases the mean by about
    -(h^2/12) * lam * exact (the mean interpolation error of a mode with
    Laplacian -lam * phi); the bias note gives the value, and z_score does
    not subtract it.
    """
    src, bc = result.dom, result.bc_mode
    if dom is not src and not (dom.h == src.h and dom.origin == src.origin
                               and np.array_equal(dom.mask, src.mask)
                               and np.array_equal(dom.code(bc), src.code(bc))):
        raise BrownianError(f"{dom.name!r} is not the lattice and {bc} "
                            f"walls the spectrum was solved on")
    if not (isinstance(mode_index, (int, np.integer))
            and 0 <= mode_index < result.k):
        raise BrownianError(f"mode_index {mode_index!r} is not one of the "
                            f"{result.k} computed modes")
    kern = _Kernel(dom, bc)
    start = _start_point(kern, x)
    grid = result.eigenfields[mode_index]
    lam = float(result.eigenvalues[mode_index])
    phi_x = float(_bilinear(kern, grid, start[0], start[1])[0])
    if t == 0:
        return FeynmanKacReport(mean=phi_x, stderr=0.0, exact=phi_x,
                                z_score=0.0, n_paths=cfg.n_paths,
                                seed=cfg.seed, bias_note="t=0: degenerate")
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=t)
    exact = math.exp(-lam * t) * phi_x
    walk = _walk(kern, cfg, start, n_steps, dt, threads, fk_grid=grid)
    mean, stderr = _mean_stderr(walk.fk_sum, walk.fk_sumsq, cfg.n_paths)
    z = (mean - exact) / stderr if stderr > 0 else 0.0
    readout = -(kern.h ** 2 / 12) * lam * exact
    return FeynmanKacReport(mean=mean, stderr=stderr, exact=exact, z_score=z,
                            n_paths=cfg.n_paths, seed=cfg.seed,
                            bias_note=_bias_note(kern, dt, walk)
                            + f"; bilinear phi readout -(h^2/12)*lam*exact="
                            f"{readout:.3e}")


def mixed_eigenvalue_via_decay(dom: GridDomain, cfg: PathConfig, t_grid,
                               max_starts: int = 64,
                               fit_tol: float = 0.05,
                               threads: int = 1) -> MixedDecayReport:
    """Estimate the principal eigenvalue from survival decay.

    Runs cfg.n_paths killed/reflected paths (per the domain's labels) from
    each node of a subsampled start grid, all in one walk, forms
    S(t) ~ integral of survival, and fits -d log S / dt by least squares
    over t_grid, its times rounded to whole steps of the resolved dt; fewer
    than 3 distinct steps raise.  If the log-survival curve bends more
    than fit_tol (rms, relative to its drop), the decay is not yet
    single-mode: raises with advice to extend t_grid.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size < 3:
        raise BrownianError("t_grid needs at least 3 times")
    if not ((t_grid > 0) & (t_grid < math.inf)).all():
        raise BrownianError("t_grid times must be finite and positive")
    if max_starts < 1:
        raise BrownianError(f"max_starts must be at least 1, got "
                            f"{max_starts!r}")
    kern = _Kernel(dom, "mixed")
    if not kern.any_dirichlet:
        raise BrownianError("decay estimation needs at least one "
                            "Dirichlet-labeled wall")
    horizon = float(t_grid[-1])
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=horizon)
    steps = sorted({max(1, int(round(tt / dt))) for tt in t_grid})
    if len(steps) < 3:  # two points fit a line exactly: fit_tol never fires
        raise BrownianError(f"t_grid gives {len(steps)} distinct steps at "
                            f"dt={dt:.6g}; the fit needs at least 3")
    times = np.array([s * dt for s in steps])

    iy, ix = np.nonzero(dom.mask)
    stride = 1
    while ((iy % stride == 0) & (ix % stride == 0)).sum() > max_starts:
        stride += 1
    pick = (iy % stride == 0) & (ix % stride == 0)
    xs, ys = dom.node_xy(iy[pick], ix[pick])

    walk = _walk(kern, cfg, kern.start_table(np.column_stack([xs, ys])),
                 n_steps, dt, threads, checkpoints=steps)
    frac = walk.surv / cfg.n_paths  # (checkpoints, starts)
    counts = frac.sum(axis=1)
    csq = (frac * (1 - frac)).sum(axis=1) / max(1, cfg.n_paths - 1)
    S = counts / len(xs)
    if (S <= 0).any():
        raise BrownianError("survival hit zero inside t_grid; use more "
                            "paths or earlier times")
    sigma_lnS = np.sqrt(csq) / counts
    y = np.log(S)
    tbar = times.mean()
    denom = float(((times - tbar) ** 2).sum())
    slope = float(((times - tbar) * (y - y.mean())).sum()) / denom
    lam = -slope
    stderr = math.sqrt(float((((times - tbar) / denom) ** 2
                              * sigma_lnS ** 2).sum()))
    fit = y.mean() + slope * (times - tbar)
    drop = max(1e-12, float(y.max() - y.min()))
    resid = float(np.sqrt(np.mean((y - fit) ** 2))) / drop
    if resid > fit_tol:
        raise BrownianError(
            f"log-survival is not linear yet (relative rms residual "
            f"{resid:.3f} > {fit_tol}); extend t_grid to later times")
    return MixedDecayReport(lambda_hat=lam, stderr=stderr,
                            fit_residual=resid,
                            t_grid=tuple(float(x) for x in times),
                            survival=tuple(float(x) for x in S),
                            seed=cfg.seed,
                            bias_note=_bias_note(kern, dt, walk)
                            + f"; {len(xs)} start nodes")
