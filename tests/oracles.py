"""Independent reference implementations used to validate package code.

Everything here is deliberately written the slow, obvious way: closed
forms where they exist, O(n^2) scans where they do not.  Four share code
with the package.  walk_batch uses its cell walk, because it checks how
the walker schedules steps, not the step rule itself; its normals come
from fill_normals here.  theta_series uses its series terms, because it
checks how theta sums them.  raster and assemble_laplacian are the
package's earlier whole-lattice forms, kept as bitwise references for
the band-only raster and the one-pass assembly: they read the package's
quarter cells and masses, because they check where probes and entries
are computed, not the finite-volume rule itself.
"""

import math

import numpy as np
import scipy.sparse as sparse


def segment_pair_distance(p1, p2, q1, q2) -> float:
    """Distance between segments [p1,p2] and [q1,q2], scalar textbook form."""
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    q1 = np.asarray(q1, float)
    q2 = np.asarray(q2, float)

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    d1 = p2 - p1
    d2 = q2 - q1
    r = q1 - p1
    denom = cross(d1, d2)
    if denom != 0.0:
        t = cross(r, d2) / denom
        u = cross(r, d1) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0

    def point_seg(p, a, b):
        ab = b - a
        L2 = float(ab @ ab)
        if L2 == 0.0:
            return float(np.hypot(*(p - a)))
        s = min(1.0, max(0.0, float((p - a) @ ab) / L2))
        return float(np.hypot(*(p - a - s * ab)))

    return min(point_seg(p1, q1, q2), point_seg(p2, q1, q2),
               point_seg(q1, p1, p2), point_seg(q2, p1, p2))


def polyline_set_distance(polys_a, polys_b) -> float:
    """O(n^2) scan over every segment pair of two polyline collections."""
    best = math.inf
    for pa in polys_a:
        for pb in polys_b:
            for i in range(len(pa) - 1):
                for j in range(len(pb) - 1):
                    best = min(best, segment_pair_distance(
                        pa[i], pa[i + 1], pb[j], pb[j + 1]))
    return best


def discrete_rectangle_dirichlet_eigenvalue(h: float, n_interior: int,
                                            k: int) -> float:
    """Exact 1d eigenvalue of the 5-point Laplacian with Dirichlet ends.

    For a chain of n interior nodes with spacing h the k-th eigenvalue is
    (4/h^2) sin^2(k pi h / (2 (n+1) h)) = (4/h^2) sin^2(k pi / (2 (n+1))).
    """
    return 4.0 / h ** 2 * math.sin(k * math.pi / (2.0 * (n_interior + 1))) ** 2


def discrete_rectangle_neumann_eigenvalue(h: float, n_nodes: int,
                                          k: int) -> float:
    """Exact 1d eigenvalue of the FV Neumann Laplacian on n nodes."""
    return 4.0 / h ** 2 * math.sin(k * math.pi / (2.0 * (n_nodes - 1))) ** 2


def wall_code(mask, labels_by_dir) -> np.ndarray:
    """Per-node wall code by a scalar scan: on an active node, bit d is set
    when its neighbor d (+x, -x, +y, -y) is an active node, and bit 4+d when
    that neighbor is missing and the wall label there is Dirichlet (0)."""
    ny, nx = mask.shape
    out = np.zeros((ny, nx), dtype=np.uint8)
    steps = ((0, 1), (0, -1), (1, 0), (-1, 0))
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix]:
                continue
            for d, (dy, dx) in enumerate(steps):
                jy, jx = iy + dy, ix + dx
                if 0 <= jy < ny and 0 <= jx < nx and mask[jy, jx]:
                    out[iy, ix] |= 1 << d
                elif labels_by_dir[d][iy][ix] == 0:
                    out[iy, ix] |= 16 << d
    return out


def resolve_step(mask, walls, fx, fy, cx, cy, max_folds=8):
    """Resolve proposed lattice positions path by path, by the rule the
    walker documents.

    mask is the active-node array; walls[d] says whether a missing
    neighbour in direction d (+x, -x, +y, -y) is a "dirichlet" or a
    "neumann" wall.  fx, fy hold the proposals in lattice units, cx, cy the
    active cells the paths start from.  In each pass a path looks at +x,
    -x, +y and -y in turn, from the cell it is in.  With the offset
    s = (f - c) * sign of its position past its node along that direction:
    it walks one cell over when the neighbour is active and s > 1/2, dies
    when the wall is Dirichlet and s > 1 (past the ghost line), and folds
    f to 2c - f when the wall is Neumann and s > 0.  The walk ends with the
    first pass in which the path does nothing or dies.  A path that acted
    in a pass after which it has folded max_folds times or more stops
    there and settles on its cell's node.

    Returns (fx, fy, cx, cy, killed, stragglers) as new arrays and a
    count; a killed path keeps the state it died in.
    """
    ny, nx = mask.shape
    n = len(fx)
    out = [list(map(float, fx)), list(map(float, fy)),
           list(map(int, cx)), list(map(int, cy))]
    killed = [False] * n
    stragglers = 0
    for i in range(n):
        f = [out[0][i], out[1][i]]
        c = [out[2][i], out[3][i]]
        folds = 0
        while True:
            acted = False
            for d, (axis, sign) in enumerate(((0, 1), (0, -1), (1, 1),
                                              (1, -1))):
                s = f[axis] - c[axis] if sign > 0 else c[axis] - f[axis]
                nb = list(c)
                nb[axis] += sign
                if 0 <= nb[0] < nx and 0 <= nb[1] < ny and mask[nb[1], nb[0]]:
                    if s > 0.5:
                        c = nb
                        acted = True
                elif walls[d] == "dirichlet":
                    if s > 1.0:
                        killed[i] = acted = True
                        break
                elif s > 0.0:
                    f[axis] = 2.0 * c[axis] - f[axis]
                    folds += 1
                    acted = True
            if not acted or killed[i]:
                break
            if folds >= max_folds:
                f = [float(c[0]), float(c[1])]
                stragglers += 1
                break
        out[0][i], out[1][i] = f
        out[2][i], out[3][i] = c
    return (np.array(out[0]), np.array(out[1]), np.array(out[2]),
            np.array(out[3]), np.array(killed), stragglers)


def fix_signs(iy, ix, bc_mode, fields):
    """Orient eigenfields in place by the rule solve_eigs documents,
    scanning entry by entry: field 0 gets a positive max; under pure
    Neumann walls field 1 gets a negative first entry, in order of
    leftmost node (bottom-most on ties), above 1e-10 of its largest
    magnitude; every other field a positive first entry, in active
    order, above 1e-8 of its largest magnitude."""
    for j, v in enumerate(fields):
        big = max(abs(float(x)) for x in v)
        if j == 0:
            flip = max(v) < -min(v)
        elif j == 1 and bc_mode == "neumann":
            order = sorted(range(len(v)), key=lambda p: (ix[p], iy[p]))
            first = next((v[p] for p in order if abs(v[p]) > 1e-10 * big),
                         0.0)
            flip = first > 0
        else:
            first = next((x for x in v if abs(x) > 1e-8 * big), 0.0)
            flip = first < 0
        if flip:
            v *= -1.0


def kill_distance(kern, fx, fy, cx, cy):
    """Distance (physical units) to the nearest Dirichlet ghost line
    bordering each path's cell, by a loop over the four directions of the
    walker's threshold table (1 where that side kills); inf where none."""
    d = np.full(fx.shape, np.inf)
    cell = cy * kern.nx + cx
    for dir_, (axis, sgn) in enumerate(((0, 1), (0, -1), (1, 1), (1, -1))):
        f, c = (fx, cx) if axis == 0 else (fy, cy)
        has = kern.thr[dir_][cell] == 1.0
        dist = (c + sgn) - f if sgn > 0 else f - (c + sgn)
        d = np.minimum(d, np.where(has, dist, np.inf))
    return d * kern.h


def walk_batch(kern, rng, starts, sid, n_steps, dt, bridge, checkpoints=(),
               fk_grid=None):
    """One walker batch, one step at a time, every path through the
    package's cell walk (`brownian._resolve_step`, itself checked against
    resolve_step above): the per-step loop the chunked walk must reproduce
    bit for bit.

    Per step and batch slot it draws two normals (fill_normals below) and
    one uniform, dead slots included, while any path lives; kills beyond
    ghost lines and by the bridge correction, exp(-d1 d2 / dt) against the
    slot's uniform for paths whose cells border a Dirichlet wall before and
    after the step.  Returns (survival counts per checkpoint and start,
    sum and sum of squares of fk_grid read bilinearly at the live paths'
    ends in slot order, stragglers).
    """
    from eigenwalk.brownian import _bilinear, _resolve_step

    size = sid.size
    pairs = np.empty(2 * size, dtype=np.float32)
    sigma = math.sqrt(2.0 * dt) / kern.h
    fx, fy, cx, cy = (np.array(a[sid]) for a in starts)
    slot = np.arange(size)
    ck = {int(s): i for i, s in enumerate(checkpoints)}
    surv = np.zeros((len(ck), starts[0].size))
    bridge = bridge and kern.any_dirichlet
    stragglers = 0
    for step in range(1, n_steps + 1):
        if not slot.size:
            break
        fill_normals(rng, pairs)
        z = pairs.reshape(2, size).astype(float)[:, slot]
        u = rng.random(size)
        dirichlet = (kern.code[cy * kern.nx + cx] >> 4) != 0
        d1 = kill_distance(kern, fx, fy, cx, cy)
        fx = fx + sigma * z[0]
        fy = fy + sigma * z[1]
        killed, lost = _resolve_step(kern, fx, fy, cx, cy)
        stragglers += lost
        dead = killed.copy()
        if bridge:
            after = (kern.code[cy * kern.nx + cx] >> 4) != 0
            prod = d1 * kill_distance(kern, fx, fy, cx, cy)
            hit = dirichlet & after & ~killed & (prod < 45.0 * dt)
            dead |= hit & (u[slot] < np.exp(-np.where(hit, prod, 0.0) / dt))
        fx, fy, cx, cy, slot = (a[~dead] for a in (fx, fy, cx, cy, slot))
        if step in ck:
            surv[ck[step]] = np.bincount(sid[slot], minlength=surv.shape[1])
    fk_sum = fk_sumsq = 0.0
    if fk_grid is not None:
        vals = np.zeros(size)
        vals[slot] = _bilinear(kern, fk_grid, fx, fy)
        fk_sum, fk_sumsq = float(vals.sum()), float((vals * vals).sum())
    return surv, fk_sum, fk_sumsq, stragglers


def fill_normals(rng, out_flat, scale=1.0):
    """Box-Muller over Generator.random(dtype=float32): the float32 draws
    that `_rng.fill_normals` must reproduce bit for bit from raw words.

    Fills a flat float32 array of even length 2k: k radii from the first k
    uniforms, k angles from the next k, za = out_flat[:k] = r cos(angle)
    and zb = out_flat[k:] = r sin(angle), all in float32.
    """
    k = out_flat.size // 2
    u = rng.random(k, dtype=np.float32)
    v = rng.random(k, dtype=np.float32)
    np.subtract(1.0, u, out=u)  # (0, 1]: log never sees zero
    np.log(u, out=u)
    u *= np.float32(-2.0 * scale * scale)
    np.sqrt(u, out=u)
    v *= np.float32(2.0 * math.pi)
    za, zb = out_flat[:k], out_flat[k:]
    np.cos(v, out=za)
    za *= u
    np.sin(v, out=zb)
    zb *= u


def theta_series(n, c):
    """theta_n(c) summed term by term, as a Python loop: the (p,
    truncation_error, terms_used) that `theta.theta` must give bit for bit.

    Reads the package's zeros and coefficients (`theta._series_terms`), so
    it checks where the sum stops and how it adds, not the series itself.
    The sum stops before the first term after the leading one whose
    magnitude is below `theta.TRUNCATION_TOL`; the term count starts at 64
    and grows fourfold, each growth adding only the new terms.
    """
    from eigenwalk.theta import MAX_TERMS, TRUNCATION_TOL, _series_terms

    survival = 0.0
    terms_used = 0
    first_omitted = 0.0
    count = 64
    start = 1
    while True:
        zeros, coef = _series_terms(int(n), count)
        t_all = coef * np.exp(-zeros * zeros / c)
        done = False
        for i in range(start - 1, count):
            term = float(t_all[i])
            if abs(term) < TRUNCATION_TOL and i >= 1:
                first_omitted = abs(term)
                done = True
                break
            survival += term
            terms_used = i + 1
        if done:
            break
        if count >= MAX_TERMS:
            raise RuntimeError("theta: series did not truncate within 1e6 terms")
        start = count + 1
        count = min(4 * count, MAX_TERMS)
    return min(1.0, max(0.0, 1.0 - survival)), first_omitted, terms_used


def raster(closed, X, Y, h, bc):
    """The active-node rule with all 9 probes taken at every node of the
    lattice: the mask `geometry._raster` must give bit for bit."""
    from eigenwalk.geometry import DIRICHLET, _drop_massless

    delta = 1e-9 * h
    fold = np.logical_and if bc == DIRICHLET else np.logical_or
    out = closed(X, Y)
    for dx in (-delta, 0.0, delta):
        for dy in (-delta, 0.0, delta):
            if dx or dy:
                fold(out, closed(X + dx, Y + dy), out=out)
    return out if bc == DIRICHLET else _drop_massless(out)


def assemble_laplacian(dom, bc_mode="mixed"):
    """(B, masses) by way of the stiffness matrix K: COO triplets summed
    into CSR, scaled by diags(m^{-1/2}) on both sides, then averaged with
    its transpose.  `spectral.assemble_laplacian` must give the same CSR
    arrays bit for bit."""
    from eigenwalk.geometry import _masses, _quarter_presence

    mask = dom.mask
    code = dom.code(bc_mode)
    quarters = _quarter_presence(mask, code)
    masses = _masses(quarters, dom.h)
    idx = np.full(mask.shape, -1, dtype=np.int64)
    iy, ix = np.nonzero(mask)
    n = iy.size
    idx[iy, ix] = np.arange(n)
    rows, cols, vals = [], [], []

    def add_edges(a_idx, b_idx, w):
        keep = w > 0
        a, b, w = a_idx[keep], b_idx[keep], w[keep]
        rows.extend((a, b, a, b))
        cols.extend((b, a, a, b))
        vals.extend((-w, -w, w, w))

    ay, ax = np.nonzero(mask[:, :-1] & mask[:, 1:])
    up = quarters[(1, 1)][ay, ax] & quarters[(-1, 1)][ay, ax + 1]
    dn = quarters[(1, -1)][ay, ax] & quarters[(-1, -1)][ay, ax + 1]
    add_edges(idx[ay, ax], idx[ay, ax + 1], 0.5 * up + 0.5 * dn)
    ay, ax = np.nonzero(mask[:-1, :] & mask[1:, :])
    rt = quarters[(1, 1)][ay, ax] & quarters[(1, -1)][ay + 1, ax]
    lt = quarters[(-1, 1)][ay, ax] & quarters[(-1, -1)][ay + 1, ax]
    add_edges(idx[ay, ax], idx[ay + 1, ax], 0.5 * rt + 0.5 * lt)
    flank = {0: ((1, 1), (1, -1)), 1: ((-1, 1), (-1, -1)),
             2: ((1, 1), (-1, 1)), 3: ((1, -1), (-1, -1))}
    for d in range(4):
        wy, wx = np.nonzero(code & (16 << d))
        qa, qb = flank[d]
        w = 0.5 * quarters[qa][wy, wx] + 0.5 * quarters[qb][wy, wx]
        keep = w > 0
        rows.append(idx[wy, wx][keep])
        cols.append(idx[wy, wx][keep])
        vals.append(w[keep])
    K = sparse.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    m = masses[iy, ix]
    s = 1.0 / np.sqrt(m)
    B = sparse.diags(s) @ K @ sparse.diags(s)
    return ((B + B.T) * 0.5).tocsr(), m


def heat_semigroup(result, f0, t):
    """(field, truncation_bound) of `spectral.heat_semigroup` by a loop
    over the fields, each gathered onto the active nodes and projected on
    its own.  The package sums the same terms in another order, so the two
    agree to rounding, not bit for bit."""
    op = result.operator
    m = op.masses
    f0_vec = np.asarray(f0, dtype=float)[op.iy, op.ix]
    coeffs, recon = [], np.zeros_like(f0_vec)
    for g in result.eigenfields:
        v = g[op.iy, op.ix]
        coeffs.append(float(np.sum(m * v * f0_vec)) / float(np.sum(m * v * v)))
        recon += coeffs[-1] * v
    tail = f0_vec - recon
    bound = (math.exp(-float(result.eigenvalues[-1]) * t)
             * math.sqrt(float(np.sum(m * tail * tail))))
    u = np.zeros(op.n)
    for c, lam, g in zip(coeffs, result.eigenvalues, result.eigenfields):
        u += c * math.exp(-float(lam) * t) * g[op.iy, op.ix]
    field = np.zeros(op.dom.mask.shape)
    field[op.iy, op.ix] = u
    return field, bound
