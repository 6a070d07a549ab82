"""Self-tests of the benchmark: every check accepts the program's output and
rejects a perturbed copy of it, threads=1 and threads=2 estimates agree
bitwise, the layer probe passes its checks, and the span arithmetic is
right.

    python3 -m pytest -q bench/selftest.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import BallExit, Round, probe  # noqa: E402
from eigenwalk.brownian import PathConfig, survival_probability  # noqa: E402
from eigenwalk.geometry import (DomainSpec, build_domain,  # noqa: E402
                                extract_level_set, set_distance)
from eigenwalk.spectral import (assemble_laplacian, solve_eigs,  # noqa: E402
                                survival_profile)
from eigenwalk.theta import mc_exit_probability, theta, theta_inverse  # noqa: E402

DUMBBELL = {"lobe_width": 1.0, "lobe_height": 1.0, "neck_width": 0.3,
            "neck_length": 0.5}


def ok(result):
    return result[0]


@pytest.fixture(scope="module")
def dirichlet():
    dom = build_domain(DomainSpec("dumbbell", DUMBBELL, 64, "dirichlet"))
    return dom, solve_eigs(assemble_laplacian(dom, "dirichlet"), 4, 0)


@pytest.fixture(scope="module")
def neumann():
    dom = build_domain(DomainSpec("dumbbell", DUMBBELL, 64, "neumann"))
    return dom, solve_eigs(assemble_laplacian(dom, "neumann"), 3, 0)


@pytest.fixture(scope="module")
def level_sets(dirichlet):
    dom, res = dirichlet
    etas = [0.2, 0.5, 0.8]
    return etas, [extract_level_set(dom, res.eigenfields[0], e) for e in etas]


def test_stencil_residual_rejects_scaled_lambda(dirichlet):
    dom, res = dirichlet
    lam, phi = res.eigenvalues, res.eigenfields
    assert ok(checks.check_dirichlet_residuals(phi, lam, dom.mask, dom.h))
    assert not ok(checks.check_dirichlet_residuals(phi, lam * 1.01, dom.mask, dom.h))


def test_stencil_skips_only_reentrant_corners(dirichlet):
    dom, _ = dirichlet
    skipped = dom.mask & ~checks.regular_nodes(dom.mask)
    assert 0 < skipped.sum() <= 16  # four neck corners and their neighbours
    assert (dom.masses[skipped] < dom.h ** 2).sum() == 4


def test_closed_forms_and_monotonicity_reject_wrong_lambda(dirichlet):
    dom, res = dirichlet
    lam1 = float(res.eigenvalues[0])
    lobe = (slice(1, dom.mask.shape[0] - 1), slice(1, 20))
    assert ok(checks.check_monotone(lam1, dom.mask, dom.h, lobe))
    lo = checks.box_eigenvalue(dom.h, dom.mask.shape[1], dom.mask.shape[0])
    assert not ok(checks.check_monotone(0.99 * lo, dom.mask, dom.h, lobe))
    assert not ok(checks.check_monotone(lam1, dom.mask, dom.h,
                                        (slice(0, 5), slice(0, 5))))
    square = build_domain(DomainSpec("rectangle", {}, 32, "dirichlet"))
    lam = float(solve_eigs(assemble_laplacian(square, "dirichlet"), 1, 0).eigenvalues[0])
    want = checks.box_eigenvalue(square.h, 31, 31)
    assert ok(checks.check_rel(lam, want, 1e-10, "lambda1"))
    assert not ok(checks.check_rel(lam * 1.01, want, 1e-10, "lambda1"))


def test_level_set_shifted_by_h_rejected(dirichlet, level_sets):
    dom, res = dirichlet
    etas, sets = level_sets
    for eta, ls in zip(etas, sets):
        args = (res.eigenfields[0], dom.mask, dom.h, dom.origin, eta)
        assert ok(checks.check_level_vertices(ls.polylines, *args))
        shifted = [p + np.array([dom.h, 0.0]) for p in ls.polylines]
        assert not ok(checks.check_level_vertices(shifted, *args))


def test_superlevel_sets_must_be_exact_and_nested(dirichlet, level_sets):
    dom, res = dirichlet
    etas, sets = level_sets
    masks = [s.superlevel_mask for s in sets]
    phi = res.eigenfields[0]
    assert ok(checks.check_superlevel(masks, etas, phi, dom.mask))
    assert not ok(checks.check_superlevel(masks[::-1], etas, phi, dom.mask))
    grown = masks[:2] + [masks[2] | masks[1]]
    assert not ok(checks.check_superlevel(grown, etas, phi, dom.mask))


def test_set_distance_bracket(dirichlet, level_sets):
    dom, _ = dirichlet
    _, sets = level_sets
    a, b = sets[0].polylines, sets[2].polylines
    d = set_distance(sets[0], sets[2])
    assert ok(checks.check_set_distance(d, a, b))
    lo, hi = checks.vertex_bracket(a, b)
    assert not ok(checks.check_set_distance(hi + dom.h, a, b))
    assert not ok(checks.check_set_distance(lo - dom.h, a, b))


def test_heat_profile_inequalities(dirichlet):
    dom, res = dirichlet
    lam1 = float(res.eigenvalues[0])
    q = survival_profile(res, 0.2)
    q_max = float(q.field[dom.mask].max())
    assert ok(checks.check_zeta_envelope(q_max, q.truncation_bound, lam1, 0.2))
    env = checks.zeta_envelope(lam1, 0.2)
    assert not ok(checks.check_zeta_envelope(env + q.truncation_bound + 1e-3,
                                             q.truncation_bound, lam1, 0.2))
    t = 0.25 ** 2 / theta_inverse(2, 0.5)
    q = survival_profile(res, t)
    th = lambda c: theta(2, c).p
    iy, ix = dom.nearest_node(0.5, 0.5)
    val = float(q.field[iy, ix])
    assert ok(checks.check_inradius([val], [0.25], t, q.truncation_bound, th))
    low = 1.0 - th(0.25 ** 2 / t) - q.truncation_bound - 1e-3
    assert not ok(checks.check_inradius([low], [0.25], t, q.truncation_bound, th))


def test_neumann_checks_reject_perturbations(neumann):
    dom, res = neumann
    mu, f2 = res.eigenvalues, res.eigenfields[1]
    assert ok(checks.check_neumann_zero(mu))
    assert not ok(checks.check_neumann_zero(mu + 1e-6))
    assert ok(checks.check_neumann_orthogonal(f2, dom.masses, dom.mask))
    assert not ok(checks.check_neumann_orthogonal(f2 + 1e-3, dom.masses, dom.mask))
    area = 2.0 + 0.3 * 0.5
    assert ok(checks.check_szego_weinberger(float(mu[1]), area))
    assert not ok(checks.check_szego_weinberger(4.01 * math.pi / area, area))
    assert ok(checks.check_hot_spot(f2, dom.mask))
    bumped = np.where(checks.boundary_nodes(dom.mask), f2, 2.0 * f2)
    assert not ok(checks.check_hot_spot(bumped, dom.mask))


def test_z_check():
    assert ok(checks.check_z(0.5, 0.01, 0.52, "x"))
    assert not ok(checks.check_z(0.5 + 0.05, 0.01, 0.5, "x"))
    assert not ok(checks.check_z(0.5, 0.0, 0.5, "x"))


def test_theta_checks_reject_1e6_errors():
    series = checks.BallSeries(2, 150.0)
    cs = [0.5, 2.0, 5.0, 20.0]
    vals = [theta(2, c).p for c in cs]
    refs = [series.theta(c) for c in cs]
    assert ok(checks.check_abs(vals, refs, 1e-10, "theta2"))
    assert not ok(checks.check_abs([vals[0] + 1e-6] + vals[1:], refs, 1e-10, "theta2"))
    c = theta_inverse(2, 0.3)
    assert abs(series.theta(c) - 0.3) < 1e-9
    assert abs(series.theta(c * (1 + 1e-6)) - 0.3) > 1e-9


def test_threads_give_bitwise_equal_estimates():
    dom = build_domain(DomainSpec("rectangle", {}, 16, "dirichlet"))
    cfg = PathConfig(t_max=0.02, n_paths=32768, dt=0.001, seed=5)
    one = survival_probability(dom, (0.5, 0.5), 0.02, cfg, threads=1)
    two = survival_probability(dom, (0.5, 0.5), 0.02, cfg, threads=2)
    assert (one.mean, one.stderr) == (two.mean, two.stderr)
    one = mc_exit_probability(2, 4.0, 65536, seed=5, dt_factor=0.05, threads=1)
    two = mc_exit_probability(2, 4.0, 65536, seed=5, dt_factor=0.05, threads=2)
    assert (one.p, one.stderr) == (two.p, two.stderr)
    assert ok(checks.check_identical(one.p, two.p, "p"))
    assert not ok(checks.check_identical(one.p, two.p + 1e-16, "p"))


def test_ball_exit_round_passes_its_checks():
    wl = BallExit(seed=11)
    wl.EXIT_PATHS = 4096  # keep the oracle part short
    r = Round(Tracer(False))
    wl.round(r)
    assert r.checks and all(c[1] for c in r.checks), r.checks
    assert r.path_steps == 3 * 4096 * 1000 and r.mc_cost > 0


def test_layer_probe_times_every_function_and_passes_its_checks():
    tr = Tracer(True)
    r = Round(tr)
    with tr.span("probe"):
        speedups = probe(r)
    assert r.checks and all(c[1] for c in r.checks), r.checks
    names = {s.name for s in tr.spans}
    for layer_fn in ("geometry.build_domain", "geometry.extract_level_set",
                     "geometry.set_distance", "spectral.assemble_laplacian",
                     "spectral.solve_eigs", "spectral.survival_profile",
                     "brownian.survival_probability", "brownian.feynman_kac",
                     "brownian.mixed_eigenvalue_via_decay", "theta.theta",
                     "theta.theta_inverse", "theta.mc_exit_probability"):
        assert layer_fn in names
    assert all(v > 0 for v in speedups.values()) and len(speedups) == 2


def test_self_times_subtract_children():
    tr = Tracer(True)
    with tr.span("round"):
        with tr.span("spectral.solve_eigs"):
            pass
        tr.call("theta.theta", theta, 2, 1.0)
    spans = tr.spans
    spans[0].start, spans[0].end = 0.0, 10.0
    spans[1].start, spans[1].end = 1.0, 4.0
    spans[2].start, spans[2].end = 5.0, 6.0
    st = self_times(spans)
    assert st == {"round": 6.0, "spectral": 3.0, "theta": 1.0}
    assert [s.parent for s in spans] == [None, 0, 0]
    off = Tracer(False)
    assert off.call("theta.theta", theta, 2, 1.0) == theta(2, 1.0)
    assert off.spans == []
