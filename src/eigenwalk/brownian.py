"""Killed, reflected, and mixed Brownian paths on grid domains.

Increments are Euler steps with per-coordinate variance 2*dt, matching the
heat semigroup convention used by the spectral module (mode j decays like
exp(-lam_j t)).  Boundary geometry is read from the same per-cell wall code
(geometry.wall_code) the finite-volume operator is assembled from, so Monte
Carlo and eigensolve answers are comparable without calibration fudges:

* a Dirichlet wall kills on the ghost-node line, one full lattice step
  beyond the last active node (where the discrete eigenfields vanish);
* a Neumann wall reflects specularly about the node line through the
  boundary nodes (whose finite-volume cells are half-width).

Each step resolves the proposed displacement by walking the lattice cell
by cell: cross into an active neighbor and keep going, fold about a
Neumann wall line (x before y, the documented tie-break), die beyond a
Dirichlet ghost line.  Most paths are far from any wall, and for them the
walk only crosses open cells: each cell's margin, the chessboard distance
to the nearest cell that is inactive or lacks an active neighbour, tells
when a proposal lands in a cell it can reach that way, and such a path
moves straight to that cell (the free-cell fast path, `_free_step`).
Every other path goes through the cell walk.  Between-step absorption is
recovered by the Brownian bridge correction: a step ending at distances
d1, d2 from a kill line registers a crossing with probability
exp(-d1*d2/dt), evaluated only for paths whose cells border a Dirichlet
wall.  One uniform per path per step is always drawn, whether or not the
correction is on, so runs with and without it see identical trajectories
and the corrected kill set contains the uncorrected one path by path.

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

import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from ._rng import NormalChunks, batch_rng, map_batches
from .geometry import GridDomain, active_cell, wall_code
from .spectral import SpectralResult, _effective_labels, grid_hash

__all__ = [
    "BrownianError",
    "PathConfig",
    "PathEstimate",
    "StoppingSample",
    "FeynmanKacReport",
    "HeatContentEstimate",
    "MixedDecayReport",
    "hit_probability",
    "survival_probability",
    "feynman_kac",
    "reflect_step",
    "stopping_time_to_set",
    "heat_content",
    "mixed_eigenvalue_via_decay",
]

BATCH_PATHS = 16384
_WALK_STREAM = 0x57414C4B  # distinct stream tag; theta's oracle uses its own
_MAX_FOLDS = 8
_FREE = 0x0F  # wall code of a cell whose four neighbours are all active
_BRIDGE_CUTOFF = 45.0  # exp(-45) ~ 3e-20: beyond this the bridge cannot fire
_START_STREAM = 0x53544152  # heat_content's start-node draws

# how a path's walk ended, per path as int8
_HORIZON, _KILLED, _HIT = 0, 1, 2
_REASONS = ("horizon", "killed", "hit_target")


class BrownianError(RuntimeError):
    """Bad path configuration, start point, or target."""


@dataclass(frozen=True)
class PathConfig:
    """Simulation budget for one estimator call.

    dt=None resolves per domain to min(h^2/4, horizon/1000), keeping the
    spatial step below the lattice resolution.  The horizon is divided
    into an integer number of steps, so the effective dt is the requested
    one rounded to land exactly on the final time.
    """

    t_max: float
    n_paths: int
    dt: float | None = None
    seed: int = 0
    bridge_correction: bool = True
    start: tuple | None = None

    def __post_init__(self):
        if not (self.t_max > 0):
            raise BrownianError("t_max must be positive")
        if self.n_paths < 100:
            raise BrownianError("n_paths must be >= 100")
        if self.dt is not None:
            if not (self.dt > 0):
                raise BrownianError("dt must be positive")
            if self.dt > self.t_max / 10:
                raise BrownianError("dt must be <= t_max/10")

    def resolve_steps(self, h: float, horizon: float | None = None):
        """(n_steps, dt) for a grid of spacing h; dt snaps to the horizon."""
        t = self.t_max if horizon is None else horizon
        if t == 0:
            return 0, 0.0
        want = self.dt if self.dt is not None else min(h * h / 4, t / 1000)
        if want > t / 10:
            want = t / 10
        n_steps = max(10, int(round(t / want)))
        return n_steps, t / n_steps


@dataclass(frozen=True)
class PathEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    bias_note: str


@dataclass(frozen=True)
class StoppingSample:
    hit: bool
    T: float | None
    exit_reason: str  # hit_target | killed | horizon


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
class HeatContentEstimate:
    value: float
    stderr: float
    spectral_value: float | None
    n_starts: int
    t: float
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
    """Immutable per-(domain, bc_mode) tables the step loop reads.

    Holds no reference to the domain, so the per-domain cache below can
    drop it with its domain."""

    def __init__(self, dom: GridDomain, bc_mode: str):
        self.bc_mode = bc_mode
        self.h = dom.h
        self.ox, self.oy = self.origin = dom.origin
        self.mask = dom.mask
        self.ny, self.nx = dom.mask.shape
        # the domain's wall code under bc_mode (geometry.wall_code), flat:
        # cell (cy, cx) is entry cy * nx + cx
        code = wall_code(dom.mask, _effective_labels(dom, bc_mode))
        self.code = code.ravel()
        self.any_dirichlet = bool((code >> 4).any())
        # chessboard distance to the nearest cell that is inactive or lacks
        # an active neighbour, capped at _MAX_FOLDS: a step to a cell closer
        # than this crosses only free cells (see _free_step)
        self.margin = np.minimum(
            ndimage.distance_transform_cdt(code == _FREE, metric="chessboard"),
            _MAX_FOLDS)

    @cached_property
    def near(self):
        """Nearest active node (iy, ix) per lattice cell, for projecting
        stragglers in _resolve_step."""
        _, (jy, jx) = ndimage.distance_transform_edt(~self.mask,
                                                     return_indices=True)
        return jy.astype(np.int32), jx.astype(np.int32)

    def to_frac(self, x, y):
        return (np.asarray(x, dtype=float) - self.ox) / self.h, \
               (np.asarray(y, dtype=float) - self.oy) / self.h

    def start_table(self, points):
        """(fx, fy, cx, cy) arrays of shape (S,) for S start points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        fx, fy = self.to_frac(pts[:, 0], pts[:, 1])
        cx, cy, inside = active_cell(self.mask, self.origin, self.h,
                                     pts[:, 0], pts[:, 1])
        if not inside.all():
            x, y = pts[int(np.argmin(inside))]
            raise BrownianError(f"start point ({x:g}, {y:g}) is outside "
                                f"the domain")
        return fx, fy, cx, cy

    def kill_distance(self, fx, fy, cx, cy):
        """Distance (physical units) to the nearest Dirichlet ghost line
        bordering each path's cell; inf where the cell has no kill wall."""
        d = np.full(fx.shape, np.inf)
        code = self.code.take(cy * self.nx + cx)
        sides = ((0, 1.0, fx, cx), (1, -1.0, fx, cx),
                 (2, 1.0, fy, cy), (3, -1.0, fy, cy))
        for dir_, sgn, f, c in sides:
            has = (code & (16 << dir_)) != 0
            dist = (c + sgn) - f if sgn > 0 else f - (c + sgn)
            np.minimum(d, np.where(has, dist, np.inf), out=d)
        return d * self.h


_KERNELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_KERNELS_LOCK = threading.Lock()


def _kernel(dom: GridDomain, bc_mode: str) -> _Kernel:
    """The kernel of (dom, bc_mode), built once and shared by every
    estimator; an entry lives exactly as long as its domain."""
    with _KERNELS_LOCK:
        per_mode = _KERNELS.setdefault(dom, {})
        kern = per_mode.get(bc_mode)
        if kern is None:
            kern = per_mode[bc_mode] = _Kernel(dom, bc_mode)
    return kern


def _resolve_step(kern: _Kernel, fx, fy, cx, cy, alive):
    """Walk each proposed position to its resolved state.

    fx, fy hold the proposals (fractional lattice units); cx, cy the cell
    each path occupied before the step (active).  Mutates all four in
    place plus `alive` for ghost-line kills; returns a boolean array
    marking paths killed during resolution.
    """
    code, nx = kern.code, kern.nx
    killed = np.zeros(fx.shape, dtype=bool)
    todo = alive.copy()
    for _ in range(_MAX_FOLDS):
        if not todo.any():
            break
        j = np.nonzero(todo)[0]
        jcx, jcy = cx[j], cy[j]
        jfx, jfy = fx[j], fy[j]
        acted = np.zeros(j.size, dtype=bool)

        for axis in (0, 1):  # x first: the documented tie-break
            f = jfx if axis == 0 else jfy
            c = jcx if axis == 0 else jcy
            d = f - c
            for sgn, dir_ in (((1.0), (0 if axis == 0 else 2)),
                              ((-1.0), (1 if axis == 0 else 3))):
                sd = d * sgn
                # read after the previous direction may have moved c
                bits = code.take(jcy * nx + jcx)
                # Dirichlet: dead past the ghost line at c + sgn
                kill = ((bits & (16 << dir_)) != 0) & (sd > 1.0)
                # Neumann (neither open nor Dirichlet): fold about the
                # node line at c
                fold = ((bits & (0x11 << dir_)) == 0) & (sd > 0.0)
                # open neighbor: walk one cell over
                walk = ((bits & (1 << dir_)) != 0) & (sd > 0.5)
                if kill.any():
                    kj = j[kill]
                    killed[kj] = True
                    alive[kj] = False
                    todo[kj] = False
                    acted |= kill
                if fold.any():
                    f[fold] = 2.0 * c[fold] - f[fold]
                    acted |= fold
                if walk.any():
                    c[walk] += int(sgn)
                    acted |= walk
                d = f - c

        live = ~killed[j]
        fx[j], fy[j] = jfx, jfy
        cx[j], cy[j] = jcx, jcy
        settled = live & ~acted
        todo[j[settled]] = False

    # stragglers (pathological folds): project to the nearest active node
    if todo.any():
        k = np.nonzero(todo)[0]
        gy = np.clip(np.rint(fy[k]).astype(np.int64), 0, kern.ny - 1)
        gx = np.clip(np.rint(fx[k]).astype(np.int64), 0, kern.nx - 1)
        near_iy, near_ix = kern.near
        ny_, nx_ = near_iy[gy, gx], near_ix[gy, gx]
        fx[k] = nx_
        fy[k] = ny_
        cx[k] = nx_
        cy[k] = ny_
    return killed


def _free_step(fx, fy, cx, cy, margin):
    """Free-cell fast path: the cells proposals (fx, fy) from cells
    (cx, cy) settle in, and the indices of the paths it does not cover.

    Along each axis _resolve_step walks while |f - c| > 1/2, through open
    cells ending at floor(f - 1/2) + 1 (f - 1/2 is exact for f >= 1/4, and
    every cell within reach of a free cell has index >= 1).  If every cell
    on the way is free, that is all it does, settling within _MAX_FOLDS
    passes and leaving the position alone; a destination closer than the
    start cell's margin (capped at _MAX_FOLDS) guarantees it.  Ties, with
    f - 1/2 integral, stay on the start cell's side and are left out.
    """
    gx, gy = fx - 0.5, fy - 0.5
    tx, ty = np.floor(gx), np.floor(gy)
    nx_ = tx.astype(np.int64) + 1
    ny_ = ty.astype(np.int64) + 1
    reach = np.maximum(np.abs(nx_ - cx), np.abs(ny_ - cy))
    slow = np.flatnonzero((reach >= margin) | (tx == gx) | (ty == gy))
    return nx_, ny_, slow


@dataclass
class _Walk:
    """Batch-reduced outputs of one walk; per-path arrays in path order."""

    surv: np.ndarray      # (checkpoints, starts) live-path counts
    fk_sum: float
    fk_sumsq: float
    hit_step: np.ndarray  # step of the exit event, -1 for 'horizon'
    reason: np.ndarray    # int8 _HORIZON / _KILLED / _HIT


def _walk_batch(kern: _Kernel, rng, starts, sid, n_steps: int, dt: float,
                bridge: bool, checkpoints=(), target_mask=None, fk_grid=None):
    """Simulate one batch; the only consumer of path increments.

    starts holds (fx, fy, cx, cy) per start point and sid the start of
    each path.  Per step and batch slot: two normal increments and one
    uniform, always in that order and drawn for dead slots too while any
    path lives, so every estimator mode sees identical trajectories.  The
    working arrays hold live paths only; `slot` maps them back to their
    batch slots.
    """
    size = sid.size
    chunks = NormalChunks()
    sigma = math.sqrt(2.0 * dt) / kern.h  # per-coordinate, lattice units
    fx, fy, cx, cy = (a[sid] for a in starts)
    slot = np.arange(size)
    reason = np.full(size, _HORIZON, dtype=np.int8)
    hit_step = np.full(size, -1, dtype=np.int64)
    ck = {int(s): i for i, s in enumerate(checkpoints)}
    surv = np.zeros((len(ck), starts[0].size))
    bridge = bridge and kern.any_dirichlet
    # per-cell tables, read through flat cell indices cy * nx + cx
    nx = kern.nx
    margin = kern.margin.ravel()
    code = kern.code
    target = None if target_mask is None else target_mask.ravel()

    if target is not None:
        home = target.take(cy * nx + cx)
        if home.any():
            hit_step[home] = 0
            reason[home] = _HIT
            keep = np.flatnonzero(~home)
            fx, fy, cx, cy, slot = (a.take(keep) for a in (fx, fy, cx, cy,
                                                           slot))

    for step in range(1, n_steps + 1):
        if not slot.size:
            break  # later draws would feed no path
        z = chunks.draw(rng, 2, size, 1, 1.0)[:, :, 0].astype(float)
        u = rng.random(size)  # always drawn: keeps kill modes aligned
        if slot.size < size:
            z = z.take(slot, axis=1)
        cell = cy * nx + cx
        if bridge:
            wi = np.flatnonzero(code.take(cell) >> 4)  # any Dirichlet wall
            d1 = kern.kill_distance(fx[wi], fy[wi], cx[wi], cy[wi])
        fx += sigma * z[0]
        fy += sigma * z[1]

        nx_, ny_, slow = _free_step(fx, fy, cx, cy, margin.take(cell))
        dead = np.zeros(slot.size, dtype=bool)
        if slow.size:
            sfx, sfy, scx, scy = fx[slow], fy[slow], cx[slow], cy[slow]
            killed = _resolve_step(kern, sfx, sfy, scx, scy,
                                   np.ones(slow.size, dtype=bool))
            fx[slow], fy[slow] = sfx, sfy
            nx_[slow], ny_[slow] = scx, scy
            dead[slow[killed]] = True
        cx, cy = nx_, ny_

        if bridge and wi.size:
            both = ~dead[wi] & ((code.take(cy[wi] * nx + cx[wi]) >> 4) != 0)
            wi, d1 = wi[both], d1[both]
            prod = d1 * kern.kill_distance(fx[wi], fy[wi], cx[wi], cy[wi])
            cand = prod < _BRIDGE_CUTOFF * dt
            if cand.any():
                wc = wi[cand]
                dead[wc[u[slot[wc]] < np.exp(-prod[cand] / dt)]] = True
        if dead.any():
            gone = slot[dead]
            reason[gone] = _KILLED
            hit_step[gone] = step
        if target is not None:
            arrived = ~dead & target.take(cy * nx + cx)
            if arrived.any():
                gone = slot[arrived]
                reason[gone] = _HIT
                hit_step[gone] = step
                dead |= arrived
        if dead.any():
            keep = np.flatnonzero(~dead)
            fx, fy, cx, cy, slot = (a.take(keep) for a in (fx, fy, cx, cy,
                                                           slot))
        if step in ck:
            surv[ck[step]] = np.bincount(sid.take(slot),
                                         minlength=surv.shape[1])

    fk_sum = fk_sumsq = 0.0
    if fk_grid is not None:
        # full-length and zero-filled, so the sum runs in slot order
        vals = np.zeros(size)
        vals[slot] = _bilinear(kern, fk_grid, fx, fy)
        fk_sum = float(vals.sum())
        fk_sumsq = float((vals * vals).sum())
    return _Walk(surv, fk_sum, fk_sumsq, hit_step, reason)


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


def _walk(kern: _Kernel, cfg: PathConfig, points, n_steps: int, dt: float,
          threads: int = 1, pick=None, **kw) -> _Walk:
    """Walk paths from the start points in BATCH_PATHS batches.

    Without `pick` the layout is start-major: cfg.n_paths paths per start,
    path = start * cfg.n_paths + j.  With it the walk has cfg.n_paths
    paths in all, and pick(batch_index, size) gives their start indices.
    Batches are keyed by (seed, batch) and reduced in batch order.
    """
    starts = kern.start_table(points)
    n_total = cfg.n_paths if pick is not None else cfg.n_paths * starts[0].size
    los = range(0, n_total, BATCH_PATHS)

    def job(b):
        lo = los[b]
        size = min(BATCH_PATHS, n_total - lo)
        sid = (pick(b, size) if pick is not None
               else np.arange(lo, lo + size) // cfg.n_paths)
        return _walk_batch(kern, batch_rng(cfg.seed, _WALK_STREAM, b), starts,
                           sid, n_steps, dt, cfg.bridge_correction, **kw)

    parts = map_batches(job, len(los), threads)
    return _Walk(surv=sum(p.surv for p in parts),
                 fk_sum=sum(p.fk_sum for p in parts),
                 fk_sumsq=sum(p.fk_sumsq for p in parts),
                 hit_step=np.concatenate([p.hit_step for p in parts]),
                 reason=np.concatenate([p.reason for p in parts]))


def _bias_note(kern: _Kernel, dt: float) -> str:
    return (f"Euler absorption bias O(sqrt(dt)): sqrt(2*dt)="
            f"{math.sqrt(2 * dt):.3e}; lattice wall placement within "
            f"h/2={kern.h / 2:.3e}")


def _mean_stderr(total, total_sq, n):
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / max(1, n - 1))
    return mean, math.sqrt(var / n)


def _start_point(kern: _Kernel, cfg: PathConfig, x=None):
    """The start (x, or cfg.start when x is None) as a float pair; raises
    BrownianError unless it is one point inside the domain."""
    pt = x if x is not None else cfg.start
    if pt is None:
        raise BrownianError("no start point: pass x or set PathConfig.start")
    pt = np.asarray(pt, dtype=float)
    if pt.shape != (2,):
        raise BrownianError("start must be a single (x, y) point")
    kern.start_table([pt])
    return float(pt[0]), float(pt[1])


def _target_mask(dom: GridDomain, target):
    """Normalize a target spec to a node mask, or None for 'boundary'."""
    if isinstance(target, str):
        if target == "boundary":
            return None
        raise BrownianError(f"unknown target string {target!r}")
    if isinstance(target, np.ndarray) and target.dtype == bool:
        if target.shape != dom.mask.shape:
            raise BrownianError("target mask shape does not match the grid")
        tm = target & dom.mask
    else:
        pts = np.atleast_2d(np.asarray(target, dtype=float))
        if pts.size == 0 or pts.shape[1] != 2:
            raise BrownianError("target must be 'boundary', a bool mask, "
                                "or a list of (x, y) points")
        inside = dom.contains(pts[:, 0], pts[:, 1])
        if not inside.all():
            x, y = pts[int(np.argmin(inside))]
            raise BrownianError(f"target point ({x:g}, {y:g}) is outside "
                                f"the domain")
        tm = np.zeros(dom.mask.shape, dtype=bool)
        tm[dom.nearest_node(pts[:, 0], pts[:, 1])] = True
    if not tm.any():
        warnings.warn("target does not overlap the domain; the estimate "
                      "will be zero", stacklevel=3)
    return tm


# ---------------------------------------------------------------------------
# public estimators


def hit_probability(dom: GridDomain, target, cfg: PathConfig,
                    bc_mode: str = "mixed", threads: int = 1) -> PathEstimate:
    """Probability of reaching the target before absorption or horizon.

    target: 'boundary' (absorption itself is the event), a boolean node
    mask, or a list of points inside the domain (their cells).  Paths
    move under the domain's wall labels unless bc_mode forces
    dirichlet/neumann.
    """
    kern = _kernel(dom, bc_mode)
    start = _start_point(kern, cfg)
    n_steps, dt = cfg.resolve_steps(kern.h)
    tm = _target_mask(dom, target)
    n = cfg.n_paths
    if tm is None:
        walk = _walk(kern, cfg, [start], n_steps, dt, threads,
                     checkpoints=[n_steps])
        hits = n - walk.surv[0, 0]
    else:
        walk = _walk(kern, cfg, [start], n_steps, dt, threads, target_mask=tm)
        hits = float(np.count_nonzero(walk.reason == _HIT))
    mean, stderr = _mean_stderr(hits, hits, n)  # indicator: sq == value
    return PathEstimate(mean=mean, stderr=stderr, n_paths=n, seed=cfg.seed,
                        bias_note=_bias_note(kern, dt))


def survival_probability(dom: GridDomain, x, t: float, cfg: PathConfig,
                         threads: int = 1) -> PathEstimate:
    """P(path from x not absorbed by time t) under the domain's labels."""
    if t < 0:
        raise BrownianError("t must be >= 0")
    kern = _kernel(dom, "mixed")
    start = _start_point(kern, cfg, x)
    if t == 0:
        return PathEstimate(mean=1.0, stderr=0.0, n_paths=cfg.n_paths,
                            seed=cfg.seed, bias_note="t=0: survival is 1")
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=t)
    walk = _walk(kern, cfg, [start], n_steps, dt, threads,
                 checkpoints=[n_steps])
    alive = walk.surv[0, 0]
    mean, stderr = _mean_stderr(alive, alive, cfg.n_paths)
    return PathEstimate(mean=mean, stderr=stderr, n_paths=cfg.n_paths,
                        seed=cfg.seed, bias_note=_bias_note(kern, dt))


def feynman_kac(dom: GridDomain, result: SpectralResult, x, t: float,
                cfg: PathConfig, mode_index: int = 0,
                threads: int = 1) -> FeynmanKacReport:
    """Monte Carlo check of E_x[phi(path_t) * alive] = exp(-lam t) phi(x).

    Path behavior follows result.bc_mode: killed paths for a Dirichlet
    spectrum, reflected (never killed) for Neumann, per-label for mixed.
    The eigenfield is bilinearly interpolated; t=0 returns phi(x) exactly.
    """
    if grid_hash(result.dom) != grid_hash(dom):
        raise BrownianError("eigenfield grid does not match the domain")
    if t < 0:
        raise BrownianError("t must be >= 0")
    kern = _kernel(dom, result.bc_mode)
    start = _start_point(kern, cfg, x)
    grid = result.eigenfields[mode_index]
    lam = float(result.eigenvalues[mode_index])
    fx, fy = kern.to_frac([start[0]], [start[1]])
    phi_x = float(_bilinear(kern, grid, fx, fy)[0])
    exact = math.exp(-lam * t) * phi_x
    if t == 0:
        return FeynmanKacReport(mean=phi_x, stderr=0.0, exact=phi_x,
                                z_score=0.0, n_paths=cfg.n_paths,
                                seed=cfg.seed, bias_note="t=0: degenerate")
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=t)
    walk = _walk(kern, cfg, [start], n_steps, dt, threads, fk_grid=grid)
    mean, stderr = _mean_stderr(walk.fk_sum, walk.fk_sumsq, cfg.n_paths)
    z = (mean - exact) / stderr if stderr > 0 else 0.0
    return FeynmanKacReport(mean=mean, stderr=stderr, exact=exact, z_score=z,
                            n_paths=cfg.n_paths, seed=cfg.seed,
                            bias_note=_bias_note(kern, dt))


def reflect_step(pos, proposed, dom: GridDomain):
    """Resolve one proposed displacement under all-reflecting walls.

    Specular folds about violated wall lines, x before y, at most 8
    alternations, then projection to the nearest active node center.
    Deterministic; a proposal already inside comes back unchanged.
    """
    kern = _kernel(dom, "neumann")
    cx, cy, inside = active_cell(kern.mask, kern.origin, kern.h,
                                 [pos[0]], [pos[1]])
    if not inside[0]:
        raise BrownianError("pos is outside the domain")
    fx, fy = kern.to_frac([proposed[0]], [proposed[1]])
    _resolve_step(kern, fx, fy, cx, cy, np.ones(1, dtype=bool))
    return (kern.ox + float(fx[0]) * kern.h,
            kern.oy + float(fy[0]) * kern.h)


def stopping_time_to_set(dom: GridDomain, target, bc: str,
                         cfg: PathConfig, threads: int = 1):
    """Per-path first-hit records for a target set.

    bc is 'kill', 'reflect', or 'mixed' (aliases 'dirichlet'/'neumann'
    accepted).  Returns a list of StoppingSample in path order.
    """
    modes = {"kill": "dirichlet", "dirichlet": "dirichlet",
             "reflect": "neumann", "neumann": "neumann", "mixed": "mixed"}
    if bc not in modes:
        raise BrownianError(f"bc must be kill, reflect or mixed, got {bc!r}")
    kern = _kernel(dom, modes[bc])
    start = _start_point(kern, cfg)
    tm = _target_mask(dom, target)
    if tm is None:
        raise BrownianError("stopping_time_to_set needs an explicit target "
                            "set, not 'boundary'")
    n_steps, dt = cfg.resolve_steps(kern.h)
    walk = _walk(kern, cfg, [start], n_steps, dt, threads, target_mask=tm)
    times = (walk.hit_step * dt).tolist()
    return [StoppingSample(hit=code == _HIT, T=t if step >= 0 else None,
                           exit_reason=_REASONS[code])
            for step, t, code in zip(walk.hit_step.tolist(), times,
                                     walk.reason.tolist())]


def heat_content(dom: GridDomain, t: float, cfg: PathConfig,
                 result: SpectralResult | None = None,
                 threads: int = 1) -> HeatContentEstimate:
    """Integral over the domain of the absorption probability by time t.

    Each of cfg.n_paths paths starts at an active node drawn with
    probability mass/area (from its own stream, keyed like the path
    batches), so area times the absorbed fraction estimates the lattice
    quadrature sum(m * P_node(absorbed by t)) without bias; the stderr is
    binomial.  A Dirichlet spectral result, if given, supplies the
    cross-check value sum(m * (1 - q_t)).
    """
    if not (t > 0):
        raise BrownianError("t must be positive")
    kern = _kernel(dom, "mixed")
    iy, ix = np.nonzero(dom.mask)
    m = dom.masses[iy, ix]
    area = float(m.sum())
    cdf = np.cumsum(m) / area
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=t)

    def pick(b, size):
        u = batch_rng(cfg.seed, _START_STREAM, b).random(size)
        return np.minimum(np.searchsorted(cdf, u, side="right"), m.size - 1)

    walk = _walk(kern, cfg, np.column_stack(dom.node_xy(iy, ix)), n_steps,
                 dt, threads, pick=pick, checkpoints=[n_steps])
    n = cfg.n_paths
    p_hit = 1.0 - float(walk.surv[0].sum()) / n
    spectral_value = None
    if result is not None:
        from .spectral import survival_profile
        q = survival_profile(result, t)
        mr = result.operator.masses
        qv = result.operator.field_to_vector(q.field)
        spectral_value = float((mr * (1.0 - qv)).sum())
    return HeatContentEstimate(value=area * p_hit,
                               stderr=area * math.sqrt(
                                   p_hit * (1.0 - p_hit) / max(1, n - 1)),
                               spectral_value=spectral_value,
                               n_starts=int(m.size), t=t, seed=cfg.seed,
                               bias_note=_bias_note(kern, dt)
                               + "; start nodes drawn by mass")


def mixed_eigenvalue_via_decay(dom: GridDomain, cfg: PathConfig, t_grid,
                               max_starts: int = 64,
                               fit_tol: float = 0.05,
                               threads: int = 1) -> MixedDecayReport:
    """Estimate the principal eigenvalue from survival decay.

    Runs cfg.n_paths killed/reflected paths (per the domain's labels) from
    each node of a subsampled start grid, all in one walk, forms
    S(t) ~ integral of survival, and fits -d log S / dt by least squares
    over t_grid.  If the log-survival curve bends more than fit_tol (rms,
    relative to its drop), the decay is not yet single-mode: raises with
    advice to extend t_grid.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size < 3:
        raise BrownianError("t_grid needs at least 3 times")
    if t_grid[0] <= 0:
        raise BrownianError("t_grid times must be positive")
    kern = _kernel(dom, "mixed")
    if not kern.any_dirichlet:
        raise BrownianError("decay estimation needs at least one "
                            "Dirichlet-labeled wall")
    horizon = float(t_grid[-1])
    n_steps, dt = cfg.resolve_steps(kern.h, horizon=horizon)
    steps = sorted({max(1, int(round(tt / dt))) for tt in t_grid})
    times = np.array([s * dt for s in steps])

    iy, ix = np.nonzero(dom.mask)
    stride = 1
    while ((iy % stride == 0) & (ix % stride == 0)).sum() > max_starts:
        stride += 1
    pick = (iy % stride == 0) & (ix % stride == 0)
    xs, ys = dom.node_xy(iy[pick], ix[pick])

    walk = _walk(kern, cfg, np.column_stack([xs, ys]), n_steps, dt, threads,
                 checkpoints=steps)
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
                            bias_note=_bias_note(kern, dt)
                            + f"; {len(xs)} start nodes")
