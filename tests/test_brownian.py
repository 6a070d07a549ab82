"""Lattice walker: fixed-seed pins, fast-path equivalence, step-resolver
invariants, and estimator checks against spectral and closed-form values.

The pins were recorded from the per-path reference walker (every path
resolved cell by cell through `_resolve_step`) before the free-cell fast
path and live-path compaction existed; they must hold bitwise at any
worker count.  The Feynman-Kac pins were recorded later, with the
walker's eigenfields given in closed form (closed_form_result), so they
also hold at any BLAS thread count.
"""

import contextlib
import dataclasses
import logging
import math
import signal
import warnings

import numpy as np
import pytest
from scipy import ndimage

from eigenwalk import brownian as B
from eigenwalk.geometry import (DIRICHLET, NEUMANN, DomainSpec, GridDomain,
                                build_domain)
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
    sq = doms["square"]
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
    return out, fk_z


PINS = {
    "feynman_kac_dirichlet": (1.2610051646905818, 0.004441730905448301),
    "feynman_kac_mixed": (0.8510537853319987, 0.0009122125008116921),
    "feynman_kac_neumann": (-0.973192837542013, 0.0040781713498270235),
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


DECAY_PIN = (2.402957539771301, 0.05466561791981698, 0.0075342029627962,
             (0.4441428571428571, 0.20957142857142858, 0.10157142857142858,
              0.051142857142857136))
STRAGGLER_PIN = (1.0, 0.0, "Euler absorption bias O(sqrt(dt)): sqrt(2*dt)="
                 "1.000e+00; 492 path-steps settled on their cell after 8 "
                 "folds; lattice wall placement within h/2=3.125e-02")


@pytest.mark.parametrize("threads", [1, 2])
def test_walks_near_walls_pinned_bitwise(doms, threads):
    """Two walks whose steps mostly go through the cell walk: the decay
    estimate on the mixed 2 x 1 rectangle in the shape of the bench's
    multistart workload (35 starts of 200 paths, 240 steps), and steps of
    16 cells rms from the neck of the r = 40 Neumann dumbbell, which run
    out of folds and settle on their cell."""
    cfg = B.PathConfig(t_max=1.2, n_paths=200, dt=1.2 / 240, seed=0)
    rep = B.mixed_eigenvalue_via_decay(doms["mixed"], cfg,
                                       (0.3, 0.6, 0.9, 1.2), max_starts=64,
                                       threads=threads)
    assert (rep.lambda_hat, rep.stderr, rep.fit_residual,
            rep.survival) == DECAY_PIN
    dumbbell = build_domain(DomainSpec(
        "dumbbell", {"neck_width": 0.25, "neck_length": 0.5}, 40, "neumann"))
    cfg = B.PathConfig(t_max=5.0, n_paths=N_PINNED, dt=0.5, seed=3)
    est = B.survival_probability(dumbbell, (1.25, 0.5), 5.0, cfg,
                                 threads=threads)
    assert (est.mean, est.stderr, est.bias_note) == STRAGGLER_PIN


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
    block.  Survival is counted at every step; a batch that gives each
    slot its own start reads every path's alive state from those counts."""
    kern = B._Kernel(doms["mixed"], "mixed")
    start, every = (0.3, 0.5), range(1, 21)
    rng = B.batch_rng(5, B._WALK_STREAM, 0)
    per_path = B._walk_batch(kern, rng, kern.start_table([start] * 900),
                             np.arange(900), 20, 0.0025, True,
                             checkpoints=every).surv
    assert set(np.unique(per_path)) == {0.0, 1.0}
    assert (np.diff(per_path, axis=0) <= 0).all()
    cfg = B.PathConfig(t_max=0.05, n_paths=900, dt=0.0025, seed=5)
    whole = B._walk(kern, cfg, kern.start_table([start]), 20, 0.0025,
                    checkpoints=every)
    assert np.array_equal(whole.surv[:, 0], per_path.sum(axis=1))
    cfg = B.PathConfig(t_max=0.05, n_paths=300, dt=0.0025, seed=5)
    split = B._walk(kern, cfg, kern.start_table([start] * 3), 20, 0.0025,
                    checkpoints=every)
    blocks = per_path.reshape(20, 3, 300).sum(axis=2)
    assert np.array_equal(split.surv, blocks)
    assert 0 < blocks[-1].sum() < 900
    assert len(set(blocks[-1])) > 1  # the blocks tell their slots apart


def test_free_step_matches_resolve_step(doms):
    """Every proposal the fast path takes lands on exactly the cell and
    position _resolve_step gives it, with no kill."""
    dom = doms["dumbbell"]
    kern = B._Kernel(dom, "mixed")
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
    nx_, ny_, slow = B._free_step(kern, fx, fy, cx, cy,
                                  kern.clear[cy * kern.nx + cx])
    fast = np.setdiff1d(np.arange(k.size), slow)
    assert fast.size > k.size // 3 and slow.size > k.size // 10
    rx, ry, rcx, rcy = fx.copy(), fy.copy(), cx.copy(), cy.copy()
    killed, _ = B._resolve_step(kern, rx, ry, rcx, rcy)
    assert not killed[fast].any()
    assert np.array_equal(rcx[fast], nx_[fast])
    assert np.array_equal(rcy[fast], ny_[fast])
    assert np.array_equal(rx[fast], fx[fast])
    assert np.array_equal(ry[fast], fy[fast])


WALK_CASES = {  # domain, kernel bc_mode, start, dt, bridge
    "square": ("square32", "mixed", (0.06, 0.45), 2e-4, True),
    "square_no_bridge": ("square32", "mixed", (0.06, 0.45), 2e-4, False),
    "neumann": ("neumann", "mixed", (0.2, 0.35), 1e-3, True),
    "mixed": ("mixed", "mixed", (0.3, 0.5), 2.5e-3, True),
    "dumbbell_neck": ("dumbbell", "mixed", (1.1, 0.5), 1.5e-3, True),
    # steps of 10 cells rms: the last paths die inside a chunk
    "square_all_die": ("square32", "mixed", (0.3, 0.45), 0.05, True),
}


@pytest.mark.parametrize("key", list(WALK_CASES))
def test_walk_matches_reference_walk(doms, key):
    """_walk_batch, which flies paths through chunks of free cells and
    replays the others, against the step-by-step reference walk: the same
    survival counts at every step and at checkpoints that end no chunk
    (5 and 13), the same stragglers, and the same sums of a random field
    read at the live paths' ends, bit for bit.  1001 paths from three
    starts, two near a wall and one a quarter farther in, over 21 steps:
    neither count is a multiple of the chunk length."""
    name, bc, start, dt, bridge = WALK_CASES[key]
    dom = rect(1.0, 1.0, 32, "dirichlet") if name == "square32" \
        else doms[name]
    kern = B._Kernel(dom, bc)
    x0, y0 = start
    starts = kern.start_table([start, (x0 + 0.25, y0), (x0, y0 + 0.03)])
    sid = np.arange(1001) % 3
    field = np.random.default_rng(9).random(dom.mask.shape)
    n_steps = 21
    for ck in (range(1, n_steps + 1), (5, 13, n_steps)):
        want = oracles.walk_batch(kern, B.batch_rng(17, B._WALK_STREAM, 0),
                                  starts, sid, n_steps, dt, bridge, ck, field)
        got = B._walk_batch(kern, B.batch_rng(17, B._WALK_STREAM, 0), starts,
                            sid, n_steps, dt, bridge, ck, field)
        assert np.array_equal(got.surv, want[0])
        assert (got.fk_sum, got.fk_sumsq, got.stragglers) == want[1:]
        if len(ck) == n_steps:
            alive = want[0].sum(axis=1)
    if key == "square_all_die":
        # the last paths die inside the chunk of steps 14-21
        assert 13 < 1 + int(np.argmax(alive == 0)) < n_steps
    else:
        assert 0 < alive[-1] and got.flown > 0
        assert (alive[-1] < 1001) == (name != "neumann")


@pytest.mark.parametrize("key", ["square", "dumbbell_neck", "mixed"])
def test_bridge_kills_a_superset_path_by_path(doms, key):
    """The bridge correction only adds kills: on the same draws, a path
    alive with it is alive without it at every step, and by the end it has
    killed paths the ghost lines alone did not.  Each of the 4000 paths
    has its own start, so the survival counts are its 0/1 alive flags."""
    name, bc, start, dt, _ = WALK_CASES[key]
    dom = rect(1.0, 1.0, 32, "dirichlet") if name == "square32" \
        else doms[name]
    kern = B._Kernel(dom, bc)
    n, n_steps = 4000, 40
    starts = kern.start_table([start] * n)
    on, off = (B._walk_batch(kern, B.batch_rng(23, B._WALK_STREAM, 0), starts,
                             np.arange(n), n_steps, dt, bridge,
                             checkpoints=range(1, n_steps + 1)).surv
               for bridge in (True, False))
    assert (on <= off).all()
    assert 0 < on[-1].sum() < off[-1].sum()


ORACLE_CASES = {  # domain, kernel bc_mode, walls in +x, -x, +y, -y
    "mixed": ("mixed", "mixed", ("dirichlet",) * 2 + ("neumann",) * 2),
    "neumann_box": ("neumann", "mixed", ("neumann",) * 4),
    "dumbbell_dirichlet": ("dumbbell", "dirichlet", ("dirichlet",) * 4),
    "dumbbell_neumann": ("dumbbell", "neumann", ("neumann",) * 4),
    "octopus_neumann": (DomainSpec("octopus", {}, 100, "neumann"), "neumann",
                        ("neumann",) * 4),
    # a 10 x 8 block with a one-node spur above its second column
    "spur": (DomainSpec("custom_mask",
                        {"rows": ["01" + "0" * 8] + ["1" * 10] * 8}, 16,
                        "neumann"), "mixed", ("neumann",) * 4),
}


@pytest.mark.parametrize("key", list(ORACLE_CASES))
def test_steps_match_reference_resolver(doms, key):
    """_resolve_step, and _free_step where it takes a path, against the
    path-by-path reference: the same kills and stragglers, and the same
    cells and positions for every path that lives.  Proposals 0.3, 0.8,
    2.5 and 8 cells rms from points of active cells, a tenth of them
    moved onto exact half-cell ties."""
    dom, bc, walls = ORACLE_CASES[key]
    dom = doms[dom] if isinstance(dom, str) else build_domain(dom)
    kern = B._Kernel(dom, bc)
    rng = np.random.default_rng(list(ORACLE_CASES).index(key))
    iy, ix = np.nonzero(dom.mask)
    n = 1000
    k = rng.integers(0, iy.size, 4 * n)
    cy, cx = iy[k].astype(np.int64), ix[k].astype(np.int64)
    scale = np.repeat([0.3, 0.8, 2.5, 8.0], n)
    fx, fy = (c + rng.uniform(-0.5, 0.5, k.size)
              + scale * rng.standard_normal(k.size) for c in (cx, cy))
    for f in (fx, fy):
        tie = rng.random(k.size) < 0.1
        f[tie] = np.round(f[tie]) + 0.5
    *want, want_killed, want_lost = oracles.resolve_step(
        dom.mask, walls, fx, fy, cx, cy)
    got = [fx.copy(), fy.copy(), cx.copy(), cy.copy()]
    killed, lost = B._resolve_step(kern, *got)
    assert lost == want_lost
    assert np.array_equal(killed, want_killed)
    live = ~killed
    for a, b in zip(got, want):
        assert np.array_equal(a[live], b[live])
    assert want_killed.any() == ("dirichlet" in walls)
    margin = kern.clear[cy * kern.nx + cx]
    nx_, ny_, slow = B._free_step(kern, fx, fy, cx, cy, margin)
    fast = np.setdiff1d(np.arange(k.size), slow)
    assert fast.size > k.size // 10
    # the fast path also takes moves to free cells at the margin's distance
    reach = np.maximum(np.abs(nx_ - cx), np.abs(ny_ - cy))
    assert (reach[fast] == margin[fast]).any()
    assert not want_killed[fast].any()
    assert np.array_equal(nx_[fast], want[2][fast])
    assert np.array_equal(ny_[fast], want[3][fast])
    assert np.array_equal(fx[fast], want[0][fast])
    assert np.array_equal(fy[fast], want[1][fast])


@contextlib.contextmanager
def within(seconds):
    """Fail the block with TimeoutError unless it returns in time."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _stragglers(caplog):
    """Straggler counts of the lattice walks logged since the last clear."""
    return [int(r.getMessage().split(", ")[-1].split()[0])
            for r in caplog.records
            if r.getMessage().startswith("lattice walk:")]


def test_straggler_projections_counted(doms, caplog):
    """Steps of about five cells (dt = 0.05 at h = 1/16) in the 1 x 0.75
    Neumann box walk as far as they must and settle without running out
    of folds, as does a pinned walk of short steps.  Steps of 16 cells rms
    (dt = 0.5) from the neck of a Neumann dumbbell, whose neck is 5 nodes
    wide, run out: the walk settles those path-steps on their cell, logs
    how many, summed over its two batches, and states it in the bias
    note, the same at 1 and 2 workers.  Single steps that run out of folds
    settle on the node of the cell they reached."""
    dumbbell = build_domain(DomainSpec(
        "dumbbell", {"neck_width": 0.25, "neck_length": 0.5}, 40, "neumann"))
    counts, means, notes = [], [], []
    with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
        for dom, x, t, dt in ((doms["neumann"], (0.5, 0.4), 0.5, 0.05),
                              (dumbbell, (1.25, 0.5), 5.0, 0.5)):
            cfg = B.PathConfig(t_max=t, n_paths=N_PINNED, dt=dt, seed=3)
            for threads in (1, 2):
                caplog.clear()
                est = B.survival_probability(dom, x, t, cfg, threads=threads)
                counts += _stragglers(caplog)
                means.append(est.mean)
                notes.append(est.bias_note)
        caplog.clear()
        cfg = B.PathConfig(t_max=0.02, n_paths=N_PINNED, dt=0.001, seed=3)
        B.survival_probability(doms["square"], (0.3, 0.45), 0.02, cfg)
        pinned = _stragglers(caplog)
    assert counts[:2] == [0, 0] and pinned == [0]
    assert "settled" not in notes[0]
    assert counts[2] == counts[3] > 0
    assert notes[2] == notes[3]
    assert f"; {counts[2]} path-steps settled on their cell after 8 folds; " \
        in notes[2]
    assert notes[2].startswith("Euler absorption bias")
    assert means == [1.0] * 4

    # single steps of 8 cells rms from the nodes of the r = 40 dumbbell
    # (3-node neck) under reflecting walls: 42 of 20000 run out of folds,
    # and those, and only those, end on the node of the cell they reached
    dom = doms["dumbbell"]
    kern = B._Kernel(dom, "neumann")
    rng = np.random.default_rng(5)
    iy, ix = np.nonzero(dom.mask)
    k = rng.integers(0, iy.size, 20000)
    cy, cx = iy[k].astype(np.int64), ix[k].astype(np.int64)
    fx, fy = (c + 8.0 * rng.standard_normal(k.size) for c in (cx, cy))
    killed, lost = B._resolve_step(kern, fx, fy, cx, cy)
    on_node = (fx == cx) & (fy == cy)
    assert not killed.any() and dom.mask[cy, cx].all()
    assert 0 < lost == on_node.sum() < 100


def _cell_walk_steps(caplog):
    """Path-steps through the cell walk of the lattice walks logged since
    the last clear."""
    return [int(r.getMessage().split(", ")[-2].split()[0])
            for r in caplog.records
            if r.getMessage().startswith("lattice walk:")]


def test_cell_walk_steps_counted(doms, caplog):
    """The walk logs how many path-steps went through the cell walk,
    summed over its batches.  A Neumann strip two cells high has no free
    cell, so every path-step of it goes there; on the Dirichlet square
    some do, the same number at 1 and 2 workers."""
    strip = build_domain(DomainSpec("custom_mask", {"rows": ["1" * 12] * 2},
                                    16, "neumann"))
    with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
        cfg = B.PathConfig(t_max=1e-3, n_paths=N_PINNED, dt=1e-4, seed=3)
        B.survival_probability(strip, (0.08, 0.01), 1e-3, cfg)
        assert _cell_walk_steps(caplog) == [10 * N_PINNED]
        counts = []
        cfg = B.PathConfig(t_max=0.02, n_paths=N_PINNED, dt=0.001, seed=3)
        for threads in (1, 2):
            caplog.clear()
            B.survival_probability(doms["square"], (0.3, 0.45), 0.02, cfg,
                                   threads=threads)
            counts += _cell_walk_steps(caplog)
    assert counts[0] == counts[1]
    assert 0 < counts[0] < 20 * N_PINNED


def _flown_steps(caplog):
    """Path-steps in free flight of the lattice walks logged since the last
    clear."""
    return [int(r.getMessage().split(", ")[-3].split()[0])
            for r in caplog.records
            if r.getMessage().startswith("lattice walk:")]


def test_free_flight_steps_counted(caplog):
    """The walk logs how many path-steps flew through chunks of free
    cells, next to those through the cell walk, summed over its batches.
    On the walker-survival square (Dirichlet, h = 1/32, dt = 2e-4, from the
    centre) most path-steps fly, the same number at 1 and 2 workers, and
    no path-step is counted twice."""
    sq = rect(1.0, 1.0, 32, "dirichlet")
    cfg = B.PathConfig(t_max=0.01, n_paths=N_PINNED, dt=2e-4, seed=3)
    counts = []
    with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
        for threads in (1, 2):
            caplog.clear()
            B.survival_probability(sq, (0.5, 0.5), 0.01, cfg, threads=threads)
            counts += zip(_flown_steps(caplog), _cell_walk_steps(caplog))
    assert len(counts) == 2 and counts[0] == counts[1]
    flown, walked = counts[0]
    assert 0.9 * 50 * N_PINNED < flown
    assert flown + walked <= 50 * N_PINNED


def test_no_step_jumps_a_wall():
    """A U of two 3-node arms with 6 empty columns between them, joined by
    a bar at the bottom, under reflecting walls.  Paths start in the upper
    half of the left arm with proposals 4 cells rms; none reaches the
    right arm unless its proposal reaches the bar's rows."""
    rows = ["111" + "0" * 6 + "111"] * 40 + ["1" * 12] * 3
    dom = build_domain(DomainSpec("custom_mask", {"rows": rows}, 16,
                                  "neumann"))
    kern = B._Kernel(dom, "neumann")
    rng = np.random.default_rng(11)
    n = 200000
    cx, cy = rng.integers(0, 3, n), rng.integers(23, 43, n)
    fx, fy = (c + 4.0 * rng.standard_normal(n) for c in (cx, cy))
    near_bar = np.abs(fy - cy) > cy - 2.5  # bar rows are y = 0, 1, 2
    killed, _ = B._resolve_step(kern, fx, fy, cx, cy)
    assert not killed.any() and dom.mask[cy, cx].all()
    assert (cx <= 2)[~near_bar].all()
    assert (fx <= 2.0)[~near_bar].all()


def test_long_open_step_lands_on_proposal():
    """A proposal more than 100 cells across an open Neumann box walks
    there cell by cell and lands exactly on the proposal."""
    kern = B._Kernel(rect(1.0, 1.0, 256, "neumann"), "neumann")
    fx, fy = np.array([150.3]), np.array([160.6])
    cx, cy = np.array([20]), np.array([20])
    with within(10):
        killed, lost = B._resolve_step(kern, fx, fy, cx, cy)
    assert lost == 0 and not killed.any()
    assert (fx[0], fy[0], cx[0], cy[0]) == (150.3, 160.6, 150, 161)


@pytest.mark.parametrize("key", ["dumbbell", "square"])
def test_margin_cells_are_free(doms, key):
    kern = B._Kernel(doms[key], "mixed")
    # active with all four neighbours active, off-grid counting as inactive
    free = ndimage.binary_erosion(kern.mask,
                                  ndimage.generate_binary_structure(2, 1))
    margin = kern.clear.reshape(kern.mask.shape)
    for iy, ix in zip(*np.nonzero(margin)):
        m = int(margin[iy, ix])
        box = free[iy - m + 1: iy + m, ix - m + 1: ix + m]
        assert box.shape == (2 * m - 1, 2 * m - 1) and box.all()
    assert 1 <= margin.max()


def resolve(kern, pos, prop):
    """_resolve_step on physical coordinates: paths in the cells of the
    points pos propose the points prop, both (n, 2); the resolved points
    and the number of stragglers."""
    _, _, cx, cy = kern.start_table(pos)
    fx, fy = ((np.asarray(prop, dtype=float) - kern.origin) / kern.h).T.copy()
    _, lost = B._resolve_step(kern, fx, fy, cx, cy)
    return np.column_stack([kern.origin[0] + fx * kern.h,
                            kern.origin[1] + fy * kern.h]), lost


class TestReflectStep:
    """Single steps under reflecting walls, through _resolve_step with a
    Neumann kernel on the r = 40 dumbbell."""

    @pytest.fixture(scope="class")
    def cases(self, doms):
        """Proposals 1.5 cells rms from active nodes.  Mirror symmetry
        holds only up to the order + before - within an axis and the fold
        cap: at 2.5 cells rms, 3 of 20000 mirrored pairs differ."""
        dom = doms["dumbbell"]
        rng = np.random.default_rng(7)
        iy, ix = np.nonzero(dom.mask)
        k = rng.integers(0, iy.size, 200)
        pos = np.column_stack(dom.node_xy(iy[k], ix[k]))
        prop = pos + rng.normal(0.0, 1.5 * dom.h, pos.shape)
        return dom, B._Kernel(dom, "neumann"), pos, prop

    def test_inside_proposal_unchanged(self, cases):
        _, kern, _, _ = cases
        pos = [(0.5, 0.5), (0.3, 0.8), (1.2, 0.5)]
        prop = [(0.52, 0.47), (0.22, 0.9), (1.3, 0.55)]
        out, lost = resolve(kern, pos, prop)
        assert out.tolist() == [list(p) for p in prop] and lost == 0

    def test_output_inside(self, cases):
        dom, kern, pos, prop = cases
        out, _ = resolve(kern, pos, prop)
        assert dom.contains(out[:, 0], out[:, 1]).all()

    def test_mirror_symmetric(self, cases):
        dom, kern, pos, prop = cases
        out, _ = resolve(kern, pos, prop)
        # the dumbbell is symmetric about x = x1/2 and y = y1/2
        for axis, end in ((0, dom.bbox[2]), (1, dom.bbox[3])):
            mpos, mprop = pos.copy(), prop.copy()
            mpos[:, axis] = end - pos[:, axis]
            mprop[:, axis] = end - prop[:, axis]
            mirrored, _ = resolve(kern, mpos, mprop)
            mirrored[:, axis] = end - mirrored[:, axis]
            np.testing.assert_allclose(mirrored, out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("x", [(-0.2, 0.3), (5.0, 5.0), (math.inf, 0.3),
                               (math.nan, 0.3)])
def test_start_beyond_grid_rejected(doms, x):
    """Starts off the lattice or non-finite are outside the domain, as
    GridDomain.contains says, even where the edge rows are active."""
    assert not doms["neumann"].contains(*x)
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy cast warning either
        with pytest.raises(ValueError, match="outside"):
            B.survival_probability(doms["neumann"], x, 0.01, cfg)
        with pytest.raises(ValueError, match="outside"):
            B.survival_probability(doms["mixed"], x, 0.01, cfg)
    with pytest.raises(ValueError, match="outside"):
        B.survival_probability(doms["mixed"], (1.0, -5.0), 0.01, cfg)


def test_start_checked_at_time_zero(doms):
    """t = 0 returns early, but not before the start is checked."""
    dom = doms["neumann"]
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    res = solve_eigs(assemble_laplacian(dom, "neumann"), 2, 0)
    for x in ((-0.2, 0.3), (math.nan, 0.3)):
        with pytest.raises(ValueError, match="outside"):
            B.survival_probability(dom, x, 0.0, cfg)
        with pytest.raises(ValueError, match="outside"):
            B.feynman_kac(dom, res, x, 0.0, cfg, mode_index=1)
    assert B.survival_probability(dom, (0.5, 0.3), 0.0, cfg).mean == 1.0
    fk = B.feynman_kac(dom, res, (0.5, 0.3), 0.0, cfg, mode_index=1)
    assert fk.mean == fk.exact and fk.stderr == 0.0


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


@pytest.mark.parametrize("t_grid", [(0.6, 0.6, 1.2), (0.6, 0.601, 1.2)])
def test_decay_needs_three_distinct_steps(doms, t_grid):
    """Times are rounded to whole steps before the fit, so a grid of three
    times can give two checkpoints; a line through two points fits
    exactly and fit_tol could never fire (on this rectangle it returned
    lambda_hat 2.07 against lambda_1 ~ 2.46, fit_residual 2.8e-16)."""
    cfg = B.PathConfig(t_max=1.2, n_paths=100, dt=0.03)
    with pytest.raises(ValueError, match="2 distinct steps at dt=0.03"):
        B.mixed_eigenvalue_via_decay(doms["mixed"], cfg, t_grid)


@pytest.mark.parametrize("max_starts", [0, -1])
def test_decay_without_starts_rejected(doms, max_starts):
    """Fewer than one start is a ValueError: on the square it used to
    walk no start and fail on a float, and where node (0, 0) is active
    (Neumann 2 x 1 rectangle, Dirichlet right wall) the start-grid search
    never ended."""
    cfg = B.PathConfig(t_max=1.2, n_paths=100, dt=0.03)
    right = rect(2.0, 1.0, 16, "neumann", right="dirichlet")
    for dom in (doms["square"], right):
        with within(10), pytest.raises(ValueError, match="max_starts"):
            B.mixed_eigenvalue_via_decay(dom, cfg, (0.3, 0.6, 0.9, 1.2),
                                         max_starts=max_starts)


def test_dt_above_tenth_of_horizon_rejected(doms):
    """A configured dt is used as given, never shrunk to horizon/10."""
    dom = doms["square"]
    cfg = B.PathConfig(t_max=1.0, n_paths=100, dt=0.1)
    assert cfg.resolve_steps(dom.h, horizon=1.0) == (10, 0.1)
    with pytest.raises(ValueError, match="dt"):
        cfg.resolve_steps(dom.h, horizon=0.01)
    with pytest.raises(ValueError, match="dt"):
        B.survival_probability(dom, (0.5, 0.5), 0.01, cfg)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -0.01])
def test_bad_times_rejected(doms, bad):
    """A non-finite or negative time, horizon, dt or t_max is refused with
    a ValueError that names it, not an OverflowError from the step
    count."""
    dom = doms["square"]
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    res = solve_eigs(assemble_laplacian(dom, "dirichlet"), 1, 0)
    with pytest.raises(ValueError, match="positive and finite"):
        B.survival_probability(dom, (0.5, 0.5), bad, cfg)
    with pytest.raises(ValueError, match="positive and finite"):
        B.feynman_kac(dom, res, (0.5, 0.5), bad, cfg)
    with pytest.raises(ValueError, match="positive and finite"):
        B.mixed_eigenvalue_via_decay(doms["mixed"], cfg, (0.3, 0.6, bad))
    with pytest.raises(ValueError, match="positive and finite"):
        cfg.resolve_steps(dom.h, horizon=bad)
    with pytest.raises(ValueError, match="t_max"):
        B.PathConfig(t_max=bad, n_paths=100)
    with pytest.raises(ValueError, match="dt"):
        B.PathConfig(t_max=0.01, n_paths=100, dt=bad)


@pytest.mark.parametrize("n", [100.5, 200.0, "200"])
def test_non_integral_path_count_rejected(n):
    with pytest.raises(ValueError, match="n_paths"):
        B.PathConfig(t_max=0.01, n_paths=n)
    assert B.PathConfig(t_max=0.01, n_paths=np.int64(200)).n_paths == 200


@pytest.mark.parametrize("mode", [-1, 2, 5, 1.0, True])
def test_mode_index_out_of_range_rejected(doms, mode):
    """Only the result's computed modes can be checked; -1 does not wrap
    round to the top one."""
    dom = doms["square"]
    res = solve_eigs(assemble_laplacian(dom, "dirichlet"), 2, 0)
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    for t in (0.0, 0.01):
        with pytest.raises(ValueError, match="mode_index"):
            B.feynman_kac(dom, res, (0.5, 0.5), t, cfg, mode_index=mode)


def test_feynman_kac_note_gives_readout_bias(doms):
    """The pinned mixed case: -(h^2/12) lam exact = -0.0027, against a
    measured bias of -0.0031 +- 0.0001 (see test_fixed_seed_pins_bitwise)."""
    dom = doms["mixed"]
    res = closed_form_result(dom, "mixed", 0)
    cfg = B.PathConfig(t_max=0.04, n_paths=100, dt=0.002, seed=7)
    rep = B.feynman_kac(dom, res, (1.0, 0.5), 0.04, cfg)
    value = float(rep.bias_note.rsplit("=", 1)[1])
    lam = float(res.eigenvalues[0])
    assert value == pytest.approx(-dom.h ** 2 / 12 * lam * rep.exact,
                                  rel=1e-3)
    assert -0.0028 < value < -0.0026
    assert rep.bias_note.startswith("Euler absorption bias")


def walled_box(labels):
    """A full 30 x 40 mask with one wall label per direction (+x, -x,
    +y, -y)."""
    return GridDomain("walls", 1 / 40, (0.0, 0.0),
                      np.ones((30, 40), dtype=bool),
                      np.array(labels).reshape(4, 1, 1))


@pytest.mark.parametrize("t", [0.0, 0.01])
def test_feynman_kac_refuses_other_walls(doms, t):
    """The walker reads dom's walls under the spectrum's condition, so dom
    must carry the lattice and the walls the spectrum was solved on: a
    result from another mask is refused, and so is one from a mixed
    domain with other walls on the same mask, at t = 0 too.  A domain
    rebuilt from the same spec is taken."""
    N, D = NEUMANN, DIRICHLET
    cfg = B.PathConfig(t_max=0.01, n_paths=100, dt=0.001)
    mixed = solve_eigs(assemble_laplacian(walled_box([N, D, N, D])), 2, 0)
    assert mixed.bc_mode == "mixed"
    square = solve_eigs(assemble_laplacian(doms["square"]), 1, 0)
    for dom, res in ((walled_box([D, N, N, D]), mixed),
                     (rect(1.0, 1.0, 17, "dirichlet"), square)):
        with pytest.raises(B.BrownianError, match="walls the spectrum"):
            B.feynman_kac(dom, res, (0.5, 0.5), t, cfg)
    B.feynman_kac(rect(1.0, 1.0, 16, "dirichlet"), square, (0.5, 0.5), t,
                  cfg)


def test_feynman_kac_walks_the_spectrum_condition():
    """A spectrum whose walls all reflect is walked reflected on a domain
    with the same mask whatever its labels: a Neumann-labeled mask
    assembled as 'mixed' is a Neumann spectrum, and the Dirichlet-labeled
    copy of the mask gives the same report bit for bit (killing paths
    against it read z = -2.87 at 4000 paths)."""
    rows = ["1" * 24] * 24
    dom_n, dom_d = (build_domain(DomainSpec("custom_mask", {"rows": rows},
                                            16, bc)) for bc in ("neumann",
                                                                "dirichlet"))
    res = solve_eigs(assemble_laplacian(dom_n), 2, 0)
    assert res.bc_mode == "neumann"
    cfg = B.PathConfig(t_max=0.02, n_paths=400, dt=0.001, seed=1)
    reps = [B.feynman_kac(dom, res, (0.2, 0.2), 0.02, cfg, mode_index=1)
            for dom in (dom_n, dom_d)]
    assert reps[0] == reps[1]
