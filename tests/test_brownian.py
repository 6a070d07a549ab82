"""Lattice walker: fixed-seed pins, fast-path equivalence, reflection
invariants, and estimator checks against spectral and closed-form values.

The pins were recorded from the per-path reference walker (every path
resolved cell by cell through `_resolve_step`) before the free-cell fast
path and live-path compaction existed; they must hold bitwise at any
worker count.  The Feynman-Kac pins were recorded later, with the
walker's eigenfields given in closed form (closed_form_result), so they
also hold at any BLAS thread count.
"""

import dataclasses
import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy import ndimage

from eigenwalk import brownian as B
from eigenwalk.geometry import DomainSpec, build_domain
from eigenwalk.spectral import assemble_laplacian, solve_eigs, survival_profile
import oracles

N_PINNED = 17000  # two path batches: 16384 + 616


def rect(width, height, resolution, bc, **overrides):
    return build_domain(DomainSpec("rectangle",
                                   {"width": width, "height": height},
                                   resolution, bc, bc_overrides=overrides))


@pytest.fixture(scope="module")
def doms():
    return {
        "square": rect(1.0, 1.0, 16, "dirichlet"),
        "neumann": rect(1.0, 0.75, 16, "neumann"),
        "mixed": rect(2.0, 1.0, 16, "dirichlet", top="neumann",
                      bottom="neumann"),
        "dumbbell": build_domain(DomainSpec(
            "dumbbell", {"neck_width": 0.25, "neck_length": 0.5}, 40,
            "dirichlet")),
    }


def _stopping_digest(samples):
    reasons = {k: sum(s.exit_reason == k for s in samples)
               for k in ("hit_target", "killed", "horizon")}
    total_t = math.fsum(s.T for s in samples if s.hit)
    rows = repr([(s.hit, s.T, s.exit_reason) for s in samples])
    return reasons, total_t, hashlib.sha256(rows.encode()).hexdigest()[:16]


def closed_form_result(dom, bc, mode):
    """The solver's result for the lowest mode + 1 pairs of a pinned
    rectangle, with pair `mode` replaced by its closed form: a discrete sine
    or cosine product at the nodes (normalized to h^2 sum f^2 = 1, signed as
    the solver signs it) and its oracle eigenvalue.  The Feynman-Kac pins
    then measure the walker alone, not the last bits of a dense eigensolve,
    which move with the BLAS thread count."""
    h = dom.h
    x, y = dom.node_xy(*np.indices(dom.shape))
    n_x = int(dom.mask.any(axis=0).sum())
    if bc == "dirichlet":  # unit square, sin(pi x) sin(pi y)
        f = np.sin(math.pi * x) * np.sin(math.pi * y)
        lam = 2 * oracles.discrete_rectangle_dirichlet_eigenvalue(h, n_x, 1)
    elif bc == "neumann":  # 1 x 0.75, -cos(pi x): negative on the left
        f = -np.cos(math.pi * x)
        lam = oracles.discrete_rectangle_neumann_eigenvalue(h, n_x, 1)
    else:  # 2 x 1, Dirichlet left and right, Neumann top and bottom
        f = np.sin(0.5 * math.pi * x)
        lam = oracles.discrete_rectangle_dirichlet_eigenvalue(h, n_x, 1)
    f = np.where(dom.mask, f, 0.0)
    f /= math.sqrt(h * h * float(np.sum(f * f)))
    res = solve_eigs(assemble_laplacian(dom, bc), mode + 1, 0)
    lams = res.eigenvalues.copy()
    lams[mode] = lam
    return dataclasses.replace(
        res, eigenvalues=lams, eigenfields=res.eigenfields[:mode] + (f,))


def pinned_outputs(doms, threads):
    """Every pinned estimate, as plain floats, for one worker count, and
    the z-scores of the Feynman-Kac estimates against exp(-lam t) phi(x)."""
    sq, mixed = doms["square"], doms["mixed"]
    out, fk_z = {}, {}

    def est(key, e):
        out[key] = (float(e.mean), float(e.stderr))

    cfg = B.PathConfig(t_max=0.02, n_paths=N_PINNED, dt=0.001, seed=3)
    est("survival_square", B.survival_probability(
        sq, (0.3, 0.45), 0.02, cfg, threads=threads))
    cfg = B.PathConfig(t_max=0.02, n_paths=N_PINNED, dt=0.001, seed=3,
                       bridge_correction=False)
    est("survival_square_no_bridge", B.survival_probability(
        sq, (0.3, 0.45), 0.02, cfg, threads=threads))
    cfg = B.PathConfig(t_max=0.03, n_paths=N_PINNED, dt=0.0015, seed=4)
    est("survival_dumbbell_neck", B.survival_probability(
        doms["dumbbell"], (1.1, 0.5), 0.03, cfg, threads=threads))

    for key, bc, mode, x, t in (("square", "dirichlet", 0, (0.4, 0.55), 0.02),
                                ("neumann", "neumann", 1, (0.2, 0.35), 0.02),
                                ("mixed", "mixed", 0, (1.0, 0.5), 0.04)):
        dom = doms[key]
        res = closed_form_result(dom, bc, mode)
        cfg = B.PathConfig(t_max=t, n_paths=N_PINNED, dt=t / 20, seed=7)
        rep = B.feynman_kac(dom, res, x, t, cfg, mode_index=mode,
                            threads=threads)
        est(f"feynman_kac_{bc}", rep)
        fk_z[bc] = rep.z_score

    cfg = B.PathConfig(t_max=0.03, n_paths=N_PINNED, dt=0.0015, seed=11,
                       start=(0.3, 0.5))
    est("hit_boundary", B.hit_probability(mixed, "boundary", cfg,
                                          threads=threads))
    right = np.indices(mixed.mask.shape)[1] >= 7
    cfg = B.PathConfig(t_max=0.05, n_paths=N_PINNED, dt=0.0025, seed=12,
                       start=(0.25, 0.5))
    est("hit_mask", B.hit_probability(mixed, right, cfg, threads=threads))

    cfg = B.PathConfig(t_max=0.05, n_paths=N_PINNED, dt=0.0025, seed=13,
                       start=(0.3, 0.5))
    for bc in ("mixed", "reflect"):
        out[f"stopping_{bc}"] = _stopping_digest(B.stopping_time_to_set(
            mixed, [(0.6, 0.5), (0.6, 0.6)], bc, cfg, threads=threads))
    return out, fk_z


PINS = {
    "feynman_kac_dirichlet": (1.2610051646905818, 0.004441730905448301),
    "feynman_kac_mixed": (0.8510537853319987, 0.0009122125008116921),
    "feynman_kac_neumann": (-0.973192837542013, 0.0040781713498270235),
    "hit_boundary": (0.21870588235294117, 0.003170485872560811),
    "hit_mask": (0.05911764705882353, 0.0018088999416943498),
    "stopping_mixed": ({"hit_target": 3218, "horizon": 8070, "killed": 5712},
                       83.3525, "bc18bb9d5485300b"),
    "stopping_reflect": ({"hit_target": 3547, "horizon": 13453, "killed": 0},
                         95.935, "93e0586d2f78b916"),
    "survival_dumbbell_neck": (0.07776470588235294, 0.0020540000475052864),
    "survival_square": (0.8344705882352941, 0.0028505680687091403),
    "survival_square_no_bridge": (0.8694117647058823, 0.0025843605081804035),
}


@pytest.mark.parametrize("threads", [1, 2])
def test_fixed_seed_pins_bitwise(doms, threads):
    """The pins, and |z| <= 4.5 for the pinned Feynman-Kac estimates.

    Their biases, measured at the pinned settings over 10 seeds x 200000
    paths, are -0.0004 +- 0.0004 (dirichlet), +0.0011 +- 0.0004 (neumann)
    and -0.0031 +- 0.0001 (mixed), against stderrs of 0.0044, 0.0041 and
    0.0009 here.  The mixed bias is 3.4 stderr and no dt removes it (-0.0030
    at 80 steps): it is the bilinear interpolation of phi = sin(pi x / 2)
    at the path ends on the h = 1/8 lattice, about -h^2/12 (pi/2)^2 E[phi]
    = -0.0027, which the exact value, read at a node, does not share."""
    out, fk_z = pinned_outputs(doms, threads)
    assert out == PINS
    assert all(abs(z) <= 4.5 for z in fk_z.values()), fk_z


def test_survival_matches_spectral_profile():
    """Killed paths against the lattice survival profile on the Dirichlet
    square (h = 1/32), from a node, at two workers.  At dt = 2e-4 the
    bridge-corrected walker sits +0.0018 +- 0.0002 above the profile (10
    seeds x 200000 paths), 0.8 of this estimate's stderr; +0.0017 of that
    is the profile's own O(h^2) lattice error, as the walker approaches
    the continuous value 0.91414 (image series) while the profile reads
    0.91247.  At dt = 4e-4 the bias is +0.0034, at 1e-3 +0.011."""
    sq = rect(1.0, 1.0, 32, "dirichlet")
    q = survival_profile(solve_eigs(assemble_laplacian(sq, "dirichlet"), 80,
                                    0), 0.02)
    assert q.truncation_bound < 1e-9
    cfg = B.PathConfig(t_max=0.02, n_paths=N_PINNED, dt=2e-4, seed=21)
    est = B.survival_probability(sq, (0.375, 0.5), 0.02, cfg, threads=2)
    iy, ix = sq.nearest_node(0.375, 0.5)
    assert abs(est.mean - q.field[iy, ix]) <= 4.5 * est.stderr
    assert 0.0015 < est.stderr < 0.003


def test_start_major_layout(doms):
    """path = start * n_paths + j: three copies of one start walk the
    slots of a single-start walk of three times the paths, block by
    block."""
    kern = B._kernel(doms["mixed"], "mixed")
    start = (0.3, 0.5)
    cfg = B.PathConfig(t_max=0.05, n_paths=300, dt=0.0025, seed=5)
    split = B._walk(kern, cfg, [start] * 3, 20, 0.0025, checkpoints=[20])
    cfg = B.PathConfig(t_max=0.05, n_paths=900, dt=0.0025, seed=5)
    whole = B._walk(kern, cfg, [start], 20, 0.0025, checkpoints=[20])
    assert np.array_equal(split.reason, whole.reason)
    blocks = (whole.reason == B._HORIZON).reshape(3, 300).sum(axis=1)
    assert np.array_equal(split.surv[0], blocks)
    assert 0 < blocks.sum() < 900


def test_free_step_matches_resolve_step(doms):
    """Every proposal the fast path takes lands on exactly the cell and
    position _resolve_step gives it, with no kill."""
    dom = doms["dumbbell"]
    kern = B._kernel(dom, "mixed")
    rng = np.random.default_rng(2024)
    iy, ix = np.nonzero(dom.mask)
    k = rng.integers(0, iy.size, 60000)
    cy, cx = iy[k].astype(np.int64), ix[k].astype(np.int64)
    scale = rng.choice([0.3, 1.0, 3.0, 6.0], size=k.size)
    fx, fy = (c + rng.uniform(-0.5, 0.5, k.size)
              + scale * rng.standard_normal(k.size) for c in (cx, cy))
    # exact ties f - 1/2 integral, which the walk breaks toward the start
    tie = rng.random(k.size) < 0.05
    fx[tie] = np.round(fx[tie]) + 0.5
    nx_, ny_, slow = B._free_step(fx, fy, cx, cy, kern.margin[cy, cx])
    fast = np.setdiff1d(np.arange(k.size), slow)
    assert fast.size > k.size // 3 and slow.size > k.size // 10
    rx, ry, rcx, rcy = fx.copy(), fy.copy(), cx.copy(), cy.copy()
    killed = B._resolve_step(kern, rx, ry, rcx, rcy,
                             np.ones(k.size, dtype=bool))
    assert not killed[fast].any()
    assert np.array_equal(rcx[fast], nx_[fast])
    assert np.array_equal(rcy[fast], ny_[fast])
    assert np.array_equal(rx[fast], fx[fast])
    assert np.array_equal(ry[fast], fy[fast])


@pytest.mark.parametrize("key", ["dumbbell", "square"])
def test_margin_cells_are_free(doms, key):
    kern = B._kernel(doms[key], "mixed")
    # active with all four neighbours active, off-grid counting as inactive
    free = ndimage.binary_erosion(kern.mask,
                                  ndimage.generate_binary_structure(2, 1))
    for iy, ix in zip(*np.nonzero(kern.margin)):
        m = int(kern.margin[iy, ix])
        box = free[iy - m + 1: iy + m, ix - m + 1: ix + m]
        assert box.shape == (2 * m - 1, 2 * m - 1) and box.all()
    assert 1 <= kern.margin.max() <= B._MAX_FOLDS


class TestReflectStep:
    @pytest.fixture(scope="class")
    def cases(self, doms):
        """Proposals 1.5 cells rms from active nodes.  Much longer ones can
        run out of _MAX_FOLDS passes and be projected to a node, and the
        pass count depends on the order + before - within an axis, so
        mirror symmetry only holds below that (at 2.5 cells rms about 1%
        of mirrored pairs differ)."""
        dom = doms["dumbbell"]
        rng = np.random.default_rng(7)
        iy, ix = np.nonzero(dom.mask)
        k = rng.integers(0, iy.size, 200)
        pos = np.column_stack(dom.node_xy(iy[k], ix[k]))
        prop = pos + rng.normal(0.0, 1.5 * dom.h, pos.shape)
        return dom, pos, prop

    def test_inside_proposal_unchanged(self, doms):
        dom = doms["dumbbell"]
        for pos, prop in (((0.5, 0.5), (0.52, 0.47)),
                          ((0.3, 0.8), (0.22, 0.9)),
                          ((1.2, 0.5), (1.3, 0.55))):
            assert B.reflect_step(pos, prop, dom) == prop

    def test_output_inside(self, cases):
        dom, pos, prop = cases
        out = np.array([B.reflect_step(p, q, dom) for p, q in zip(pos, prop)])
        assert dom.contains(out[:, 0], out[:, 1]).all()

    def test_mirror_symmetric(self, cases):
        dom, pos, prop = cases
        x1, y1 = dom.bbox[2], dom.bbox[3]  # the dumbbell is symmetric
        for p, q in zip(pos, prop):     # about x = x1/2 and y = y1/2
            out = B.reflect_step(p, q, dom)
            mx = B.reflect_step((x1 - p[0], p[1]), (x1 - q[0], q[1]), dom)
            my = B.reflect_step((p[0], y1 - p[1]), (q[0], y1 - q[1]), dom)
            assert mx == pytest.approx((x1 - out[0], out[1]), abs=1e-12)
            assert my == pytest.approx((out[0], y1 - out[1]), abs=1e-12)

    def test_outside_pos_rejected(self, doms):
        with pytest.raises(B.BrownianError):
            B.reflect_step((1.25, 0.05), (1.25, 0.1), doms["dumbbell"])

    def test_pos_beyond_grid_rejected(self, doms):
        """The Neumann rectangle's edge columns are active: a position
        beyond them is outside, not clipped onto them."""
        for pos in ((-3.0, 0.3), (0.5, 9.0), (math.nan, 0.3)):
            with pytest.raises(B.BrownianError):
                B.reflect_step(pos, (0.5, 0.3), doms["neumann"])


@pytest.mark.parametrize("x", [(-0.2, 0.3), (5.0, 5.0), (math.inf, 0.3),
                               (math.nan, 0.3)])
def test_start_beyond_grid_rejected(doms, x):
    """Starts off the lattice or non-finite are outside the domain, as
    GridDomain.contains says, even where the edge rows are active."""
    assert not doms["neumann"].contains(*x)
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001, start=x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy cast warning either
        with pytest.raises(B.BrownianError, match="outside"):
            B.survival_probability(doms["neumann"], x, 0.01, cfg)
        with pytest.raises(B.BrownianError, match="outside"):
            B.hit_probability(doms["mixed"], "boundary", cfg)
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001, start=(1.0, -5.0))
    with pytest.raises(B.BrownianError, match="outside"):
        B.hit_probability(doms["mixed"], "boundary", cfg)


def test_start_checked_at_time_zero(doms):
    """t = 0 returns early, but not before the start is checked."""
    dom = doms["neumann"]
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    res = solve_eigs(assemble_laplacian(dom, "neumann"), 2, 0)
    for x in ((-0.2, 0.3), (math.nan, 0.3)):
        with pytest.raises(B.BrownianError, match="outside"):
            B.survival_probability(dom, x, 0.0, cfg)
        with pytest.raises(B.BrownianError, match="outside"):
            B.feynman_kac(dom, res, x, 0.0, cfg, mode_index=1)
    assert B.survival_probability(dom, (0.5, 0.3), 0.0, cfg).mean == 1.0
    fk = B.feynman_kac(dom, res, (0.5, 0.3), 0.0, cfg, mode_index=1)
    assert fk.mean == fk.exact and fk.stderr == 0.0


@pytest.mark.parametrize("target", [[(5.0, 5.0)], [(0.5, 0.3), (-0.2, 0.3)],
                                    [(math.inf, 0.3)]])
def test_target_outside_rejected(doms, target):
    """A target point outside the domain is an error, not a clip onto the
    nearest edge node."""
    dom = doms["neumann"]
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001, start=(0.5, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(B.BrownianError, match="target point"):
            B.hit_probability(dom, target, cfg, bc_mode="neumann")
        with pytest.raises(B.BrownianError, match="target point"):
            B.stopping_time_to_set(dom, target, "reflect", cfg)


def test_kernel_cache_shared_and_weak():
    dom = rect(1.0, 1.0, 16, "dirichlet")
    kern = B._kernel(dom, "mixed")
    assert B._kernel(dom, "mixed") is kern
    assert B._kernel(dom, "neumann") is not kern
    B.reflect_step((0.5, 0.5), (0.55, 0.5), dom)
    neumann = B._kernel(dom, "neumann")
    assert neumann.bc_mode == "neumann"
    assert "near" not in vars(neumann)  # only stragglers need it
    assert neumann.near is neumann.near
    del neumann
    gone = weakref.ref(dom)
    del dom, kern
    gc.collect()
    assert gone() is None


def test_heat_content_matches_spectral(doms):
    """Start nodes drawn by mass make area * P(absorbed) an unbiased
    estimate of the lattice sum m * (1 - q_t).  At dt = 5e-4 the walker
    sits 0.0010 +- 0.0006 below it (6 x 50000 paths), a quarter of this
    test's stderr."""
    sq = doms["square"]
    res = solve_eigs(assemble_laplacian(sq, "dirichlet"), 60, 0)
    cfg = B.PathConfig(t_max=0.02, n_paths=10000, dt=0.0005, seed=0)
    est = B.heat_content(sq, 0.02, cfg, result=res)
    assert est.n_starts == int(sq.mask.sum())
    assert abs(est.value - est.spectral_value) <= 4.5 * est.stderr
    assert 0.003 < est.stderr < 0.006


def test_heat_content_threads_bitwise(doms):
    cfg = B.PathConfig(t_max=0.01, n_paths=17000, dt=0.001, seed=1)
    one = B.heat_content(doms["square"], 0.01, cfg, threads=1)
    two = B.heat_content(doms["square"], 0.01, cfg, threads=2)
    assert (one.value, one.stderr) == (two.value, two.stderr)


def test_decay_lambda_matches_closed_form(doms):
    """Mixed 2 x 1 rectangle, Dirichlet left and right: the lattice
    lambda_1 is that of a chain of nx - 2 nodes, 4/h^2 sin^2(pi h / 4).
    Over seeds 0-19 lambda_hat has mean 0.029 below it and sd 0.060,
    against a reported stderr of 0.056."""
    dom = doms["mixed"]
    lam1 = 4.0 / dom.h ** 2 * math.sin(math.pi * dom.h / 4.0) ** 2
    cfg = B.PathConfig(t_max=1.2, n_paths=200, dt=1.2 / 240, seed=0)
    rep = B.mixed_eigenvalue_via_decay(dom, cfg, (0.3, 0.6, 0.9, 1.2))
    assert rep.bias_note.endswith("; 35 start nodes")
    assert abs(rep.lambda_hat - lam1) <= 4.5 * rep.stderr
    assert 0.03 < rep.stderr < 0.1
