"""The benchmark's four workloads.

A workload is built from its seed (`__init__`, untimed: inputs and the
independent reference values its checks need) and then runs whole rounds
(`round`), each the same sequence of package calls and checks.  Every call
into the package goes through the round's tracer, every Monte Carlo call
through `Round.mc`, and every check through `Round.check`, which counts one
operation.  `baseline` runs only in traced runs: the single-thread repeat of
one estimate behind the `thread_speedup` metrics.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import ndimage

import checks
from eigenwalk.brownian import (PathConfig, feynman_kac,
                                mixed_eigenvalue_via_decay,
                                survival_probability)
from eigenwalk.geometry import (DomainSpec, build_domain, extract_level_set,
                                set_distance)
from eigenwalk.spectral import assemble_laplacian, solve_eigs, survival_profile
from eigenwalk.theta import (interval_survival_images, mc_exit_probability,
                             theta, theta_inverse)

THREADS = 2


class Round:
    """Ledger of one round: checks, Monte Carlo time, path-steps and the
    time-to-1%-stderr cost, plus layer counts for the traced metrics."""

    def __init__(self, tracer):
        self.tr = tracer
        self.checks: list[tuple[str, bool, str]] = []
        self.mc_time = 0.0
        self.path_steps = 0
        self.mc_cost = 0.0
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        return self.tr.call(name, fn, *args, **kwargs)

    def check(self, name, fn, *args):
        with self.tr.span("check." + name):
            ok, detail = fn(*args)
        self.checks.append((name, bool(ok), detail))

    def mc(self, name, path_steps, fn, *args, **kwargs):
        """Time one Monte Carlo call; returns (estimate, seconds).
        `path_steps` is the nominal count, or a function of the estimate
        when only the estimate says how many starts it ran."""
        t0 = time.perf_counter()
        with self.tr.span(name) as span:
            est = fn(*args, **kwargs)
        sec = time.perf_counter() - t0
        if callable(path_steps):
            path_steps = path_steps(est)
        if span is not None:
            span.counts["path_steps"] = path_steps
        self.mc_time += sec
        self.path_steps += path_steps
        return est, sec

    def cost(self, seconds, mean, stderr):
        """Add time_i * (rel_stderr_i / 0.01)^2 for one estimate."""
        self.mc_cost += seconds * (stderr / abs(mean) / 0.01) ** 2

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def solve(self, op, k, seed):
        """`solve_eigs`, counting its unknowns and its worst certified
        residual relative to (1 + lambda)."""
        res = self.call("spectral.solve_eigs", solve_eigs, op, k, seed)
        self.count("dofs", op.n)
        worst = float(np.max(res.residuals / (1.0 + np.abs(res.eigenvalues))))
        self.counts["max_rel_residual"] = max(self.counts.get("max_rel_residual", 0.0), worst)
        return res


def _node(dom, x, y):
    """Nearest active lattice node to (x, y), as ((iy, ix), (x, y))."""
    iy, ix = dom.nearest_node(x, y)
    iy, ix = int(iy), int(ix)
    if not dom.mask[iy, ix]:
        raise ValueError(f"({x}, {y}) is not at an active node")
    px, py = dom.node_xy(iy, ix)
    return (iy, ix), (float(px), float(py))


def _rect(width, height, resolution, bc, **overrides):
    return DomainSpec("rectangle", {"width": width, "height": height},
                      resolution, bc, bc_overrides=overrides)


def _starts(rep) -> int:
    """Start count of a decay report, from its note "...; N start nodes"."""
    return int(rep.bias_note.rsplit(";", 1)[1].split()[0])


def _mixed_rect(resolution):
    """2 x 1 rectangle, Dirichlet left and right, Neumann top and bottom."""
    return _rect(2.0, 1.0, resolution, "dirichlet",
                 top="neumann", bottom="neumann")


# ---------------------------------------------------------------------------


class BottleneckSpectral:
    """Dirichlet and Neumann dumbbells plus a Dirichlet octopus at ~2.2e4
    nodes each: eigensolves, ground-state level sets, their pairwise distances,
    heat-profile inequalities and a short Feynman-Kac cross-check."""

    K = 12
    FK_PATHS = 8192
    T_ENVELOPE = 0.2  # truncation of the 12-mode heat series is ~1e-9 here

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        u = lambda: float(rng.uniform(-1.0, 1.0))
        self.seed = seed
        # shapes vary by a few percent; the resolution follows the bounding
        # box so the spacing, and with it the node count, stays put
        db = {"lobe_width": 1.0, "lobe_height": 1.0,
              "neck_width": 0.1 * (1 + 0.05 * u()),
              "neck_length": 0.5 * (1 + 0.05 * u())}
        db_res = round(256 * (2.0 + db["neck_length"]) / 2.5)
        tl = 1.0 + 0.05 * u()
        self.dumbbell = db
        self.specs = [
            DomainSpec("dumbbell", db, db_res, "dirichlet", name="dumbbell-D"),
            DomainSpec("dumbbell", db, db_res, "neumann", name="dumbbell-N"),
            DomainSpec("octopus", {"body_radius": 1.0,
                                   "tentacle_width": 0.2 * (1 + 0.03 * u()),
                                   "tentacle_length": tl, "tentacle_count": 4},
                       round(150 * (1.0 + tl)), "dirichlet", name="octopus-D"),
        ]
        self.etas = [lo + 0.05 * float(rng.uniform()) for lo in (0.15, 0.35, 0.55, 0.75)]
        # Feynman-Kac starts: near the left wall of the Dirichlet dumbbell
        # (killing matters), inside the left lobe of the Neumann one
        self.fk_start_d = (0.06 + 0.002 * u(), 0.5 + 0.02 * u())
        self.fk_start_n = (0.3 + 0.02 * u(), 0.5 + 0.02 * u())
        self.fk_t = 0.0025
        self.sample_seed = int(rng.integers(1 << 31))

    def round(self, r: Round):
        for spec in self.specs:
            dom = r.call("geometry.build_domain", build_domain, spec)
            op = r.call("spectral.assemble_laplacian", assemble_laplacian,
                        dom, spec.bc_default)
            res = r.solve(op, self.K, self.seed)
            if spec.bc_default == "dirichlet":
                self._dirichlet(r, spec, dom, res)
            else:
                self._neumann(r, dom, res)

    def _inner_box(self, spec, dom):
        """Node rectangle of the left lobe (dumbbell) or the square
        inscribed in the body disc (octopus)."""
        ny, nx = dom.mask.shape
        h = dom.h
        xs = dom.origin[0] + np.arange(nx) * h
        ys = dom.origin[1] + np.arange(ny) * h
        if spec.family == "dumbbell":
            lw, lh = self.dumbbell["lobe_width"], self.dumbbell["lobe_height"]
            cols = np.nonzero((xs > 1e-9 * h) & (xs < lw - 1e-9 * h))[0]
            rows = np.nonzero((ys > 1e-9 * h) & (ys < lh - 1e-9 * h))[0]
        else:
            half = spec.params["body_radius"] / math.sqrt(2.0)
            cols = np.nonzero(np.abs(xs) < half)[0]
            rows = np.nonzero(np.abs(ys) < half)[0]
        return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)

    def _dirichlet(self, r: Round, spec, dom, res):
        lam, phi = res.eigenvalues, res.eigenfields
        r.check("dirichlet_stencil_residual", checks.check_dirichlet_residuals,
                phi, lam, dom.mask, dom.h)
        r.check("dirichlet_monotonicity", checks.check_monotone,
                float(lam[0]), dom.mask, dom.h, self._inner_box(spec, dom))

        sets = []
        for eta in self.etas:
            ls = r.call("geometry.extract_level_set", extract_level_set,
                        dom, phi[0], eta)
            r.count("level_set_segments", sum(len(p) - 1 for p in ls.polylines))
            r.check("level_set_interpolates", checks.check_level_vertices,
                    ls.polylines, phi[0], dom.mask, dom.h, dom.origin, eta)
            sets.append(ls)
        r.check("superlevel_nested", checks.check_superlevel,
                [s.superlevel_mask for s in sets], self.etas, phi[0], dom.mask)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                d = r.call("geometry.set_distance", set_distance, sets[i], sets[j])
                r.check("set_distance_bracket", checks.check_set_distance,
                        d, sets[i].polylines, sets[j].polylines)

        q = r.call("spectral.survival_profile", survival_profile, res,
                   self.T_ENVELOPE)
        r.check("zeta_envelope", checks.check_zeta_envelope,
                float(q.field[dom.mask].max()), q.truncation_bound,
                float(lam[0]), self.T_ENVELOPE)

        # inscribed-disc bound at the time the deepest disc keeps half
        # its paths: t* = d_max^2 / theta_2^{-1}(1/2)
        depth = ndimage.distance_transform_edt(np.pad(dom.mask, 1))[1:-1, 1:-1]
        iy, ix = np.nonzero(dom.mask)
        pick = np.random.default_rng(self.sample_seed).choice(iy.size, 63, replace=False)
        pick = np.append(pick, np.argmax(depth[iy, ix]))
        d = (depth[iy[pick], ix[pick]] - 1.0) * dom.h
        c_half = r.call("theta.theta_inverse", theta_inverse, 2, 0.5)
        t_star = float(d.max()) ** 2 / c_half
        q = r.call("spectral.survival_profile", survival_profile, res, t_star)
        theta2 = lambda c: r.call("theta.theta", theta, 2, c).p
        r.check("inradius_bound", checks.check_inradius,
                q.field[iy[pick], ix[pick]], d, t_star, q.truncation_bound, theta2)

        if spec.family == "dumbbell":
            self._feynman_kac(r, dom, res, self.fk_start_d, 0)

    def _neumann(self, r: Round, dom, res):
        lam, f2 = res.eigenvalues, res.eigenfields[1]
        db = self.dumbbell
        area = (2 * db["lobe_width"] * db["lobe_height"]
                + db["neck_width"] * db["neck_length"])
        r.check("neumann_mu1_zero", checks.check_neumann_zero, lam)
        r.check("neumann_f2_orthogonal", checks.check_neumann_orthogonal,
                f2, dom.masses, dom.mask)
        r.check("neumann_szego_weinberger", checks.check_szego_weinberger,
                float(lam[1]), area)
        r.check("neumann_hot_spot", checks.check_hot_spot, f2, dom.mask)
        self._feynman_kac(r, dom, res, self.fk_start_n, 1)

    def _feynman_kac(self, r: Round, dom, res, start, mode):
        (iy, ix), x = _node(dom, *start)
        cfg = PathConfig(t_max=self.fk_t, n_paths=self.FK_PATHS,
                         dt=dom.h * dom.h / 2.0, seed=self.seed)
        n_steps, _ = cfg.resolve_steps(dom.h, horizon=self.fk_t)
        rep, sec = r.mc("brownian.feynman_kac", self.FK_PATHS * n_steps,
                        feynman_kac, dom, res, x, self.fk_t, cfg,
                        mode_index=mode, threads=THREADS)
        exact = math.exp(-float(res.eigenvalues[mode]) * self.fk_t) \
            * float(res.eigenfields[mode][iy, ix])
        r.cost(sec, rep.mean, rep.stderr)
        r.check("feynman_kac_z", checks.check_z, rep.mean, rep.stderr, exact,
                f"{dom.name} mode {mode}")


# ---------------------------------------------------------------------------


class WalkerSurvival:
    """Big-batch lattice walks: survival from one start against the
    spectral survival profile, and Feynman-Kac in Dirichlet, Neumann and
    mixed modes, 32768 paths each (two path batches, so threads=2 splits
    them)."""

    N_PATHS = 32768
    # 200 steps of dt = 2e-4 (survival) and 50 of 4e-4 or 8e-4 (Feynman-Kac)
    # keep every Euler step shorter than a lattice cell; the bridge-corrected
    # survival bias at dt = 2e-4 measured z = -0.07 (stderr 0.0027)
    SURVIVAL_STEPS = 200
    FK_STEPS = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        self.seed = seed
        self.square = _rect(1.0, 1.0, 32, "dirichlet")
        self.neumann = _rect(1.0, 0.75, 32, "neumann")
        self.mixed = _mixed_rect(32)
        # starts move by a few cells and times by a few percent, so every
        # seed poses estimates of the same variance
        self.t_surv = u(0.039, 0.041)
        self.start_surv = (u(0.44, 0.56), u(0.44, 0.56))
        self.fk = [  # (spec, bc, mode, start, t)
            (self.square, "dirichlet", 0, (u(0.32, 0.38), u(0.44, 0.56)), u(0.0195, 0.0205)),
            (self.neumann, "neumann", 1, (u(0.17, 0.23), u(0.3, 0.45)), u(0.0195, 0.0205)),
            (self.mixed, "mixed", 0, (u(0.9, 1.1), u(0.4, 0.6)), u(0.039, 0.041)),
        ]

    def round(self, r: Round):
        for spec, bc, mode, start, t in self.fk:
            dom = r.call("geometry.build_domain", build_domain, spec)
            op = r.call("spectral.assemble_laplacian", assemble_laplacian, dom, bc)
            # 40 square modes leave a heat-series truncation below 1e-8 at t_surv
            k = 40 if spec is self.square else mode + 1
            res = r.solve(op, k, self.seed)
            r.check(f"{bc}_lambda_closed_form", checks.check_rel,
                    float(res.eigenvalues[mode]), _closed_form(dom, bc), 1e-10,
                    f"{bc} lambda[{mode}]")
            if spec is self.square:
                self.check_survival(r, dom, res)
            (iy, ix), x = _node(dom, *start)
            cfg = PathConfig(t_max=t, n_paths=self.N_PATHS, dt=t / self.FK_STEPS,
                             seed=self.seed)
            rep, sec = r.mc("brownian.feynman_kac", self.N_PATHS * self.FK_STEPS,
                            feynman_kac, dom, res, x, t, cfg, mode_index=mode,
                            threads=THREADS)
            exact = math.exp(-float(res.eigenvalues[mode]) * t) \
                * float(res.eigenfields[mode][iy, ix])
            r.cost(sec, rep.mean, rep.stderr)
            r.check("feynman_kac_z", checks.check_z, rep.mean, rep.stderr,
                    exact, f"{bc} mode {mode}")

    def survival(self, r: Round, dom, threads):
        """The survival estimate; returns (estimate, seconds)."""
        t = self.t_surv
        _, x = _node(dom, *self.start_surv)
        cfg = PathConfig(t_max=t, n_paths=self.N_PATHS,
                         dt=t / self.SURVIVAL_STEPS, seed=self.seed)
        return r.mc("brownian.survival_probability",
                    self.N_PATHS * self.SURVIVAL_STEPS,
                    survival_probability, dom, x, t, cfg, threads=threads)

    def check_survival(self, r: Round, dom, res):
        est, sec = self.survival(r, dom, THREADS)
        t = self.t_surv
        (iy, ix), x = _node(dom, *self.start_surv)
        q = r.call("spectral.survival_profile", survival_profile, res, t)
        r.cost(sec, est.mean, est.stderr)
        r.check("survival_z", checks.check_z, est.mean, est.stderr,
                float(q.field[iy, ix]), "survival vs spectral profile")
        # the disc of radius d around x lies inside the unit square
        d = min(x[0], 1.0 - x[0], x[1], 1.0 - x[1])
        theta2 = lambda c: r.call("theta.theta", theta, 2, c).p
        r.check("survival_inradius_bound", checks.check_inradius,
                [est.mean + checks.Z_MAX * est.stderr], [d], t, 0.0, theta2)

    def baseline(self, r: Round) -> dict:
        dom = build_domain(self.square)
        two, sec2 = self.survival(r, dom, THREADS)
        one, sec1 = self.survival(r, dom, 1)
        r.check("threads_bitwise_equal", checks.check_identical,
                (one.mean, one.stderr), (two.mean, two.stderr), "survival 1 vs 2 threads")
        return {"brownian.thread_speedup": sec1 / sec2}


def _closed_form(dom, bc) -> float:
    """Lowest nonzero eigenvalue of the lattice rectangle, closed form."""
    ny, nx = dom.mask.shape
    h = dom.h
    if bc == "dirichlet":
        return checks.box_eigenvalue(h, nx - 2, ny - 2)
    if bc == "neumann":  # cos(pi x / width) on nx nodes, ends included
        return 4.0 / (h * h) * math.sin(math.pi / (2.0 * (nx - 1))) ** 2
    return checks.chain_eigenvalue(h, nx - 2)  # Dirichlet across x only


# ---------------------------------------------------------------------------


class WalkerMultistart:
    """Principal eigenvalue of a mixed rectangle from survival decay: many
    starts (35) of few paths (200), each start its own small walk."""

    N_PATHS = 200
    MAX_STARTS = 64
    N_STEPS = 240
    # The decay estimate runs every start on the same random stream, so its
    # reported stderr understates the spread; over seeds 0-10 lambda_hat
    # fell within 12% of lambda_1.  The check allows 30%.
    LAMBDA_RTOL = 0.3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.spec = _mixed_rect(16)
        self.horizon = 1.2 * (1 + 0.02 * float(rng.uniform(-1.0, 1.0)))
        self.t_grid = [self.horizon * f for f in (0.25, 0.5, 0.75, 1.0)]

    def round(self, r: Round):
        dom = r.call("geometry.build_domain", build_domain, self.spec)
        op = r.call("spectral.assemble_laplacian", assemble_laplacian, dom, "mixed")
        res = r.solve(op, 2, self.seed)
        lam1 = float(res.eigenvalues[0])
        r.check("mixed_lambda1_closed_form", checks.check_rel, lam1,
                _closed_form(dom, "mixed"), 1e-10, "lambda1")
        cfg = PathConfig(t_max=self.horizon, n_paths=self.N_PATHS,
                         dt=self.horizon / self.N_STEPS, seed=self.seed)
        n_steps, _ = cfg.resolve_steps(dom.h, horizon=self.horizon)
        rep, sec = r.mc("brownian.mixed_eigenvalue_via_decay",
                        lambda rep: _starts(rep) * self.N_PATHS * n_steps,
                        mixed_eigenvalue_via_decay, dom, cfg, self.t_grid,
                        max_starts=self.MAX_STARTS, threads=THREADS)
        r.count("starts", _starts(rep))
        r.cost(sec, rep.lambda_hat, rep.stderr)
        r.check("decay_lambda", checks.check_rel, rep.lambda_hat, lam1,
                self.LAMBDA_RTOL, "lambda_hat")


# ---------------------------------------------------------------------------


class BallExit:
    """theta_n and theta_n^{-1} for n = 1, 2, 3 against independent series,
    and the free-space exit oracle at threads=2 against theta_n."""

    N_C = 128
    C_MAX = 150.0
    N_P = 6
    EXIT_PATHS = 65536  # two oracle batches
    DT_FACTOR = 1e-3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.seed = seed
        self.series = {n: checks.BallSeries(n, self.C_MAX) for n in (2, 3)}
        self.cs = {n: np.exp(rng.uniform(math.log(0.25), math.log(self.C_MAX),
                                         self.N_C)).tolist() for n in (1, 2, 3)}
        self.refs = {n: [self.reference(n, c) for c in self.cs[n]] for n in (1, 2, 3)}
        self.ps = {n: rng.uniform(0.05, 0.95, self.N_P).tolist() for n in (1, 2, 3)}
        ranges = {1: (2.9, 3.1), 2: (3.9, 4.1), 3: (4.9, 5.1)}
        self.exit_c = {n: float(rng.uniform(*ranges[n])) for n in (1, 2, 3)}
        self.exit_ref = {n: self.reference(n, c) for n, c in self.exit_c.items()}

    def reference(self, n: int, c: float) -> float:
        if n == 1:  # method of images, the package's own second route
            return 1.0 - interval_survival_images(c)
        return self.series[n].theta(c)

    def round(self, r: Round):
        for n in (1, 2, 3):
            vals = [r.call("theta.theta", theta, n, c).p for c in self.cs[n]]
            route = "method of images" if n == 1 else "mpmath series"
            r.check(f"theta{n}_vs_reference", checks.check_abs, vals,
                    self.refs[n], 1e-10, f"theta_{n} vs {route}")
            cstar = [r.call("theta.theta_inverse", theta_inverse, n, p)
                     for p in self.ps[n]]
            r.check(f"theta{n}_inverse_roundtrip", self._roundtrip, n, cstar,
                    self.ps[n])
        for n in (1, 2, 3):
            est, sec = self.exit(r, n, THREADS)
            r.cost(sec, est.p, est.stderr)
            r.check("mc_exit_z", checks.check_z, est.p, est.stderr,
                    self.exit_ref[n], f"exit n={n} c={self.exit_c[n]:.3f}")

    def _roundtrip(self, n, cstar, ps):
        back = [self.reference(n, c) for c in cstar]
        return checks.check_abs(back, ps, 1e-9 + 1e-12, f"theta_{n}(theta_{n}^-1(p))")

    def exit(self, r: Round, n: int, threads: int):
        """The exit-oracle estimate for n; returns (estimate, seconds)."""
        steps = int(round(1.0 / self.DT_FACTOR))
        return r.mc("theta.mc_exit_probability", self.EXIT_PATHS * steps,
                    mc_exit_probability, n, self.exit_c[n], self.EXIT_PATHS,
                    self.seed, self.DT_FACTOR, threads)

    def baseline(self, r: Round) -> dict:
        two, sec2 = self.exit(r, 2, THREADS)
        one, sec1 = self.exit(r, 2, 1)
        r.check("threads_bitwise_equal", checks.check_identical,
                (one.p, one.stderr), (two.p, two.stderr), "exit 1 vs 2 threads")
        return {"theta.thread_speedup": sec1 / sec2}


# ---------------------------------------------------------------------------


PROBE_DUMBBELL = DomainSpec("dumbbell", {"lobe_width": 1.0, "lobe_height": 1.0,
                                         "neck_width": 0.3, "neck_length": 0.5},
                            64, "dirichlet")


def probe(r: Round) -> dict:
    """One small, fixed call of every timed package function, made in traced
    runs after the rounds.  A workload's per-layer metric for a function its
    rounds never call is read from here, so every layer metric is measured
    on every workload.  Deterministic outputs are checked; the stochastic
    ones only for thread invariance.  Returns the two thread speedups."""
    dom = r.call("geometry.build_domain", build_domain, PROBE_DUMBBELL)
    res = r.solve(r.call("spectral.assemble_laplacian", assemble_laplacian,
                         dom, "dirichlet"), 4, 0)
    r.check("probe_stencil_residual", checks.check_dirichlet_residuals,
            res.eigenfields, res.eigenvalues, dom.mask, dom.h)
    r.call("spectral.survival_profile", survival_profile, res, 0.05)
    sets = []
    for eta in (0.5, 0.8):
        ls = r.call("geometry.extract_level_set", extract_level_set,
                    dom, res.eigenfields[0], eta)
        r.count("level_set_segments", sum(len(p) - 1 for p in ls.polylines))
        r.check("probe_level_set", checks.check_level_vertices, ls.polylines,
                res.eigenfields[0], dom.mask, dom.h, dom.origin, eta)
        sets.append(ls)
    d = r.call("geometry.set_distance", set_distance, *sets)
    r.check("probe_set_distance", checks.check_set_distance, d,
            sets[0].polylines, sets[1].polylines)

    square = build_domain(_rect(1.0, 1.0, 16, "dirichlet"))
    cfg = PathConfig(t_max=0.02, n_paths=32768, dt=0.001, seed=5)
    two, walk2 = r.mc("brownian.survival_probability", 32768 * 20,
                      survival_probability, square, (0.5, 0.5), 0.02, cfg,
                      threads=THREADS)
    one, walk1 = _timed(survival_probability, square, (0.5, 0.5), 0.02, cfg, threads=1)
    r.check("probe_threads_bitwise_equal", checks.check_identical,
            float(one.mean), float(two.mean), "survival 1 vs 2 threads")
    fk_res = solve_eigs(assemble_laplacian(square, "dirichlet"), 1, 0)
    r.mc("brownian.feynman_kac", 2048 * 20, feynman_kac, square, fk_res,
         (0.5, 0.5), 0.02, PathConfig(t_max=0.02, n_paths=2048, dt=0.001, seed=5))
    decay = PathConfig(t_max=1.2, n_paths=100, dt=0.03, seed=5)
    rep, _ = r.mc("brownian.mixed_eigenvalue_via_decay",
                  lambda rep: _starts(rep) * 100 * 40, mixed_eigenvalue_via_decay,
                  build_domain(_mixed_rect(16)), decay, (0.3, 0.6, 0.9, 1.2),
                  max_starts=4, fit_tol=10.0)
    r.count("starts", _starts(rep))

    series = checks.BallSeries(2, 150.0)
    cs = np.geomspace(0.5, 100.0, 32)
    vals = [r.call("theta.theta", theta, 2, c).p for c in cs]
    r.check("probe_theta", checks.check_abs, vals, [series.theta(c) for c in cs],
            1e-10, "theta_2 vs mpmath series")
    r.call("theta.theta_inverse", theta_inverse, 2, 0.5)
    two, exit2 = r.mc("theta.mc_exit_probability", 65536 * 100,
                      mc_exit_probability, 2, 4.0, 65536, 5, 0.01, THREADS)
    one, exit1 = _timed(mc_exit_probability, 2, 4.0, 65536, 5, 0.01, 1)
    r.check("probe_threads_bitwise_equal", checks.check_identical,
            one.p, two.p, "exit 1 vs 2 threads")
    return {"brownian.thread_speedup": walk1 / walk2,
            "theta.thread_speedup": exit1 / exit2}


def _timed(fn, *args, **kwargs):
    """(result, seconds) of an untraced single-thread repeat."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


WORKLOADS = {
    "bottleneck-spectral": BottleneckSpectral,
    "walker-survival": WalkerSurvival,
    "walker-multistart": WalkerMultistart,
    "ball-exit": BallExit,
}
