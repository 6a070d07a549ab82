"""Spectral module: assembly exactness, eigensolve certificates, heat flow.

Rectangle eigenvalues are checked against closed-form discrete sine/cosine
spectra (oracles.py), which the finite-volume assembly must reproduce to
rounding, not merely to discretization accuracy.  Continuum pins
(2*pi^2, pi^2, j_{0,1}^2) then only measure the h^2 discretization gap.
"""

import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import oracles
from eigenwalk import spectral
from eigenwalk.geometry import (DIRICHLET, NEUMANN, DomainError,
                                DomainSpec, GridDomain, build_domain,
                                diameter)
from eigenwalk.spectral import (
    ClassicalBounds,
    SpectralError,
    assemble_laplacian,
    classical_bounds,
    grid_hash,
    heat_semigroup,
    solve_eigs,
    survival_profile,
    zeta_bound,
)

J01_SQ = 5.783185962946785  # square of the first zero of J_0


def rect(width=1.0, height=1.0, resolution=64, bc="dirichlet", **kw):
    return build_domain(DomainSpec(family="rectangle",
                                   params={"width": width, "height": height},
                                   resolution=resolution, bc_default=bc, **kw))


@pytest.fixture(scope="module")
def sq128d():
    dom = rect(resolution=128)
    return solve_eigs(assemble_laplacian(dom, "dirichlet"), k=20, seed=0)


@pytest.fixture(scope="module")
def dumbbell_n():
    spec = DomainSpec(family="dumbbell",
                      params={"lobe_width": 1.0, "lobe_height": 1.0,
                              "neck_width": 0.3, "neck_length": 0.5},
                      resolution=128, bc_default="neumann")
    dom = build_domain(spec)
    return solve_eigs(assemble_laplacian(dom, "neumann"), k=20, seed=0)


# ---------------------------------------------------------------------------
# assembly


def tiny_domain(n=3, h=1.0, labels=0):
    mask = np.ones((n, n), dtype=bool)
    lab = np.full((4, n, n), labels, dtype=np.int8)
    return GridDomain("tiny", h, (0.0, 0.0), mask, lab)


class TestAssembly:
    def test_unit_spacing_dirichlet_stencil(self):
        op = assemble_laplacian(tiny_domain(3, 1.0), "dirichlet")
        A = op.matrix.toarray()
        assert A.shape == (9, 9)
        assert np.all(A.diagonal() == 4.0)
        off = A[~np.eye(9, dtype=bool)]
        assert set(np.unique(off)) == {-1.0, 0.0}
        assert np.abs(A - A.T).max() == 0.0

    def test_positive_semidefinite(self):
        for bc in ("dirichlet", "neumann"):
            op = assemble_laplacian(rect(resolution=16, bc=bc), bc)
            w = np.linalg.eigvalsh(op.matrix.toarray())
            assert w.min() > -1e-12 * w.max()

    def test_exact_symmetry_on_mixed_dumbbell(self):
        spec = DomainSpec(family="dumbbell",
                          params={"lobe_width": 1.0, "lobe_height": 1.0,
                                  "neck_width": 0.3, "neck_length": 0.5},
                          resolution=64, bc_default="neumann")
        op = assemble_laplacian(build_domain(spec), "mixed")
        d = op.matrix - op.matrix.T
        assert abs(d).max() == 0.0

    def test_neumann_kernel_is_weighted_constant(self):
        op = assemble_laplacian(rect(resolution=48, bc="neumann"), "neumann")
        v = op.sqrt_mass / np.linalg.norm(op.sqrt_mass)
        resid = np.abs(op.matrix @ v).max()
        assert resid < 1e-12 * float(op.matrix.diagonal().max())

    def test_mixed_mode_reads_domain_labels(self):
        dom = rect(resolution=24, bc="dirichlet")
        a = assemble_laplacian(dom, "mixed").matrix
        b = assemble_laplacian(dom, "dirichlet").matrix
        assert (a != b).nnz == 0

    def test_unknown_bc_mode_rejected(self):
        with pytest.raises(ValueError, match="bc_mode"):
            assemble_laplacian(rect(resolution=16), "robin")

    def test_unlabeled_wall_rejected(self):
        """A label other than DIRICHLET (0) or NEUMANN (1) fails when the
        domain is built, whether one label or one per direction and node."""
        mask = np.ones((4, 4), dtype=bool)
        for lab in (np.full((4, 4, 4), 7, dtype=np.int8), -1,
                    np.array([0, 1, 1, 2]).reshape(4, 1, 1)):
            with pytest.raises(DomainError, match="label"):
                GridDomain("bad", 0.25, (0.0, 0.0), mask, lab)

    @pytest.mark.parametrize("bc", ["neumann", "mixed"])
    def test_zero_mass_node_named(self, bc):
        """The bottom row "0100" is a spur: its node (row 0, column 1) has
        no active neighbor along x, so under Neumann walls it holds no
        quarter cell; the error names it."""
        dom = build_domain(DomainSpec(
            "custom_mask", {"rows": ["0110", "1111", "1110", "0100"]}, 16,
            "neumann"))
        with pytest.raises(SpectralError,
                           match=r"node \(row 0, column 1\).*no quarter cell"):
            assemble_laplacian(dom, bc)

    @pytest.mark.parametrize("res, family, arms", [
        pytest.param(res, family, None, id=f"{res}-{family}")
        for res in (32, 64, 128) for family in ("disk", "annulus")] + [
        pytest.param(res, "octopus", arms, id=f"{res}-octopus-{arms}")
        for res in (100, 150) for arms in (1, 2, 5, 7)])
    def test_neumann_circle_assembles_at_even_resolution(self, res, family,
                                                         arms):
        """(+-r, 0) and (0, +-r) are then nodes of the closed outer circle
        with no neighbor inside along one axis: they are left out, so every
        active node holds cell mass.  So are such nodes of an octopus's
        body arcs and the corners of its slanted arm tips."""
        params = {} if arms is None else {"tentacle_count": arms}
        dom = build_domain(DomainSpec(family, params, res, "neumann"))
        op = assemble_laplacian(dom, "neumann")
        assert (op.masses > 0).all() and op.n == dom.n_active
        if arms is None:
            assert not dom.contains([1.0, -1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0, -1.0]).any()


# ---------------------------------------------------------------------------
# eigensolve against exact discrete spectra


class TestEigsExactDiscrete:
    def test_dirichlet_square_matches_discrete_sines(self):
        dom = rect(resolution=64)
        r = solve_eigs(assemble_laplacian(dom, "dirichlet"), k=3, seed=0)
        h = dom.h
        n_int = 63
        lam = lambda kx, ky: (
            oracles.discrete_rectangle_dirichlet_eigenvalue(h, n_int, kx)
            + oracles.discrete_rectangle_dirichlet_eigenvalue(h, n_int, ky))
        want = sorted([lam(1, 1), lam(1, 2), lam(2, 1)])
        assert np.allclose(r.eigenvalues, want, rtol=1e-10, atol=1e-9)

    def test_neumann_square_matches_discrete_cosines(self):
        dom = rect(resolution=64, bc="neumann")
        r = solve_eigs(assemble_laplacian(dom, "neumann"), k=3, seed=0)
        n_nodes = dom.mask.shape[1]
        mu2 = oracles.discrete_rectangle_neumann_eigenvalue(dom.h, n_nodes, 1)
        assert r.eigenvalues[0] == 0.0
        assert np.allclose(r.eigenvalues[1:3], [mu2, mu2], rtol=1e-10)

    def test_neumann_ground_field_constant(self):
        dom = rect(resolution=64, bc="neumann")
        r = solve_eigs(assemble_laplacian(dom, "neumann"), k=2, seed=0)
        g = r.eigenfields[0][dom.mask]
        assert g.min() > 0
        assert (g.max() - g.min()) / g.max() < 1e-6

    def test_mixed_rectangle_matches_tensor_spectrum(self):
        # Dirichlet across the long axis, Neumann top and bottom: the
        # low modes are purely one-dimensional discrete sines.
        dom = rect(2.0, 1.0, resolution=64, bc="dirichlet",
                   bc_overrides={"top": "neumann", "bottom": "neumann"})
        r = solve_eigs(assemble_laplacian(dom, "mixed"), k=2, seed=0)
        n_int = int(dom.mask[dom.mask.shape[0] // 2].sum())
        want = [oracles.discrete_rectangle_dirichlet_eigenvalue(dom.h, n_int, k)
                for k in (1, 2)]
        assert np.allclose(r.eigenvalues, want, rtol=1e-10)

    def test_dense_path_agrees_with_oracle(self):
        dom = rect(resolution=16)  # 225 nodes: solved densely
        r = solve_eigs(assemble_laplacian(dom, "dirichlet"), k=2, seed=0)
        lam1 = 2 * oracles.discrete_rectangle_dirichlet_eigenvalue(dom.h, 15, 1)
        assert r.eigenvalues[0] == pytest.approx(lam1, rel=1e-12)


class TestEigsContinuum:
    def test_square_lambda1_res256(self):
        r = solve_eigs(assemble_laplacian(rect(resolution=256), "dirichlet"),
                       k=1, seed=0)
        assert r.eigenvalues[0] == pytest.approx(2 * math.pi ** 2, rel=5e-3)

    def test_neumann_mu2_res256(self):
        dom = rect(resolution=256, bc="neumann")
        r = solve_eigs(assemble_laplacian(dom, "neumann"), k=2, seed=0)
        assert r.eigenvalues[1] == pytest.approx(math.pi ** 2, rel=5e-3)

    def test_disk_lambda1_res256(self):
        dom = build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                      resolution=256, bc_default="dirichlet"))
        r = solve_eigs(assemble_laplacian(dom, "dirichlet"), k=1, seed=0)
        assert r.eigenvalues[0] == pytest.approx(J01_SQ, rel=1e-2)

    def test_neumann_disk_mu2_first_order(self):
        """mu_2 of the unit Neumann disk is (j'_{1,1})^2; the staircase
        boundary leaves an O(h) excess, measured +4.3% at resolution 64
        and +2.1% at 128."""
        mpmath = pytest.importorskip("mpmath")
        exact = float(mpmath.besseljzero(1, 1, derivative=1)) ** 2
        errs = []
        for res in (64, 128):
            dom = build_domain(DomainSpec("disk", {}, res, "neumann"))
            r = solve_eigs(assemble_laplacian(dom, "neumann"), k=2, seed=0)
            errs.append(r.eigenvalues[1] / exact - 1.0)
        assert 0.0 < errs[1] < errs[0] < 0.05
        assert 1.8 < errs[0] / errs[1] < 2.2

    def test_neumann_annulus_mu2(self):
        """Radii 0.5 and 1: mu_2 = k^2 at the first root k of
        J1'(k/2) Y1'(k) - J1'(k) Y1'(k/2); measured -0.35% at resolution
        64."""
        mpmath = pytest.importorskip("mpmath")
        cross = lambda k: (  # noqa: E731
            mpmath.besselj(1, k / 2, derivative=1)
            * mpmath.bessely(1, k, derivative=1)
            - mpmath.besselj(1, k, derivative=1)
            * mpmath.bessely(1, k / 2, derivative=1))
        exact = float(mpmath.findroot(cross, 1.35)) ** 2
        dom = build_domain(DomainSpec("annulus", {}, 64, "neumann"))
        r = solve_eigs(assemble_laplacian(dom, "neumann"), k=2, seed=0)
        assert r.eigenvalues[1] == pytest.approx(exact, rel=5e-3)

    def test_grid_convergence_order(self):
        errs = []
        for res in (64, 128, 256):
            r = solve_eigs(assemble_laplacian(rect(resolution=res),
                                              "dirichlet"), k=1, seed=0)
            errs.append(abs(r.eigenvalues[0] - 2 * math.pi ** 2))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9

    def test_domain_monotonicity(self):
        big = solve_eigs(assemble_laplacian(rect(1.0, 1.0, 64), "dirichlet"),
                         k=1, seed=0)
        small = solve_eigs(assemble_laplacian(rect(1.0, 0.5, 64), "dirichlet"),
                           k=1, seed=0)
        assert big.eigenvalues[0] < small.eigenvalues[0]


class TestEigsContract:
    def test_residual_certificate(self, sq128d, dumbbell_n):
        for r in (sq128d, dumbbell_n):
            assert np.all(r.residuals <= 1e-8 * (1 + np.abs(r.eigenvalues)))

    def test_rayleigh_quotient_matches(self, sq128d):
        op = sq128d.operator
        for lam, g in zip(sq128d.eigenvalues, sq128d.eigenfields):
            u = op.field_to_vector(g) * op.sqrt_mass
            rq = float(u @ (op.matrix @ u)) / float(u @ u)
            assert abs(rq - lam) <= 1e-10 * (1 + lam)

    def test_ascending_and_nonnegative(self, sq128d, dumbbell_n):
        for r in (sq128d, dumbbell_n):
            assert np.all(np.diff(r.eigenvalues) >= -1e-12)
            assert r.eigenvalues[0] >= 0.0

    def test_normalization(self, sq128d):
        h = sq128d.dom.h
        for g in sq128d.eigenfields:
            assert h * h * float((g * g).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_determinism(self):
        spec = DomainSpec(family="rectangle",
                          params={"width": 1.0, "height": 1.0},
                          resolution=32, bc_default="dirichlet")
        a = solve_eigs(assemble_laplacian(build_domain(spec), "dirichlet"),
                       k=4, seed=7)
        b = solve_eigs(assemble_laplacian(build_domain(spec), "dirichlet"),
                       k=4, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.eigenfields, b.eigenfields))

    def test_ground_state_one_signed(self, sq128d):
        g = sq128d.eigenfields[0][sq128d.dom.mask]
        assert g.min() > 0

    def test_second_neumann_sign(self, dumbbell_n):
        op = dumbbell_n.operator
        v = op.field_to_vector(dumbbell_n.eigenfields[1])
        leftmost = np.lexsort((op.iy, op.ix))[0]
        assert v[leftmost] < 0

    def test_signs_match_reference(self, sq128d, dumbbell_n):
        """The sign rule against the entry-by-entry scan in
        oracles.fix_signs, bit for bit, on the computed fields with random
        signs.  In every other field the first two entries of its scan
        order are set to 1/2 and 2 times its significance threshold, the
        first with the sign of the entry after them and the second with
        the other sign, so the outcome depends on where the scan starts
        and on the threshold."""
        rng = np.random.default_rng(3)
        for r in (sq128d, dumbbell_n):
            op = r.operator
            left = np.lexsort((op.iy, op.ix))
            fields = []
            for j, g in enumerate(r.eigenfields):
                v = op.field_to_vector(g) * rng.choice([-1.0, 1.0])
                if j % 2:
                    neumann = j == 1 and op.bc_mode == "neumann"
                    scan = left if neumann else np.arange(v.size)
                    rel = 1e-10 if neumann else 1e-8
                    a = 1.0 if v[scan[2]] >= 0 else -1.0
                    v[scan[:2]] = np.abs(v).max() * rel * np.array([0.5 * a,
                                                                    -2 * a])
                fields.append(v)
            want = [v.copy() for v in fields]
            oracles.fix_signs(op.iy, op.ix, op.bc_mode, want)
            spectral._fix_signs(op, fields)
            assert all(np.array_equal(a, b) for a, b in zip(fields, want))

    def test_bad_k(self):
        op = assemble_laplacian(rect(resolution=16), "dirichlet")
        with pytest.raises(ValueError):
            solve_eigs(op, k=0)
        with pytest.raises(ValueError):
            solve_eigs(op, k=10 ** 6)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_lanczos_route_matches_dense(self, bc):
        """About 1100 nodes: past the dense cutoff, so the shift-inverted
        Lanczos route runs; its eigenvalues must match a dense eigh of the
        same matrix."""
        dom = build_domain(DomainSpec(
            family="dumbbell", params={"neck_width": 0.25, "neck_length": 0.5},
            resolution=56, bc_default=bc))
        op = assemble_laplacian(dom, bc)
        assert 1000 < op.n < 1200
        r = solve_eigs(op, k=12, seed=0)
        want = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True)[:12]
        np.testing.assert_allclose(r.eigenvalues, want, rtol=1e-10,
                                   atol=1e-10)

    def test_unreachable_residual_reports_residual(self):
        op = assemble_laplacian(rect(resolution=32), "dirichlet")
        with pytest.raises(SpectralError, match="residual"):
            solve_eigs(op, k=3, seed=0, residual_tol=1e-30)

    def test_nan_residual_refused(self, monkeypatch):
        """A Ritz vector with a NaN entry fails the residual certificate.
        NaN compares false with any bound, so a test written as
        `worst > residual_tol` let it through with NaN residuals and NaN
        eigenfields."""
        op = assemble_laplacian(rect(resolution=32), "dirichlet")
        real = spectral.eigsh

        def eigsh(A, k, **kw):
            w, V = real(A, k, **kw)
            V[0, 0] = np.nan
            return w, V

        monkeypatch.setattr(spectral, "eigsh", eigsh)
        with pytest.raises(SpectralError, match="eigensolve residual nan"):
            solve_eigs(op, k=4, seed=0)


def _routes(caplog):
    """The solve_eigs route lines logged since the last clear."""
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("solve_eigs")]


MIRRORED = {
    "dumbbell-D": (DomainSpec("dumbbell", {"neck_width": 0.25,
                                           "neck_length": 0.5}, 56,
                              "dirichlet"), "dirichlet"),
    "dumbbell-N": (DomainSpec("dumbbell", {"neck_width": 0.25,
                                           "neck_length": 0.5}, 56,
                              "neumann"), "neumann"),
    "octopus-D": (DomainSpec("octopus", {"tentacle_width": 0.4}, 80,
                             "dirichlet"), "dirichlet"),
}


class TestMirrorSplit:
    """Operators that commute exactly with a lattice mirror are solved as
    its even and odd halves (solve_eigs); the rest, and those whose halves
    would be solved densely, whole."""

    @pytest.mark.parametrize("key", sorted(MIRRORED))
    def test_split_matches_dense_and_unsplit(self, key, monkeypatch, caplog):
        """1000 to 1800 nodes.  Eigenvalues match a dense eigh of B; the
        fields of simple eigenvalues (no other within 1e-3 relative) match
        the unsplit route's."""
        spec, bc = MIRRORED[key]
        op = assemble_laplacian(build_domain(spec), bc)
        assert 1000 < op.n < 3000
        with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
            r = solve_eigs(op, k=12, seed=0)
        assert "Lanczos on x-mirror halves" in _routes(caplog)[-1]
        want = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True)[:12]
        np.testing.assert_allclose(r.eigenvalues, want, rtol=1e-10,
                                   atol=1e-10)
        monkeypatch.setattr(spectral, "_mirror", lambda op: None)
        whole = solve_eigs(op, k=12, seed=0)
        lam = r.eigenvalues
        gap = np.minimum(np.r_[np.inf, np.diff(lam)],
                         np.r_[np.diff(lam), np.inf])
        simple = np.nonzero(gap > 1e-3 * np.maximum(1.0, lam))[0]
        assert simple.size >= 4
        for j in simple:
            np.testing.assert_allclose(r.eigenfields[j], whole.eigenfields[j],
                                       rtol=0, atol=1e-8)

    def test_degenerate_pair_is_parity_adapted(self):
        """An octopus with four arms has exactly degenerate pairs (the bench
        octopus's at lambda ~ 14.275 is one).  The split returns such a
        pair in its parity-adapted basis: one field even under the
        left-right mirror, one odd, both bit for bit."""
        spec, bc = MIRRORED["octopus-D"]
        r = solve_eigs(assemble_laplacian(build_domain(spec), bc), k=3, seed=0)
        lam = r.eigenvalues
        assert lam[2] - lam[1] < 1e-12 * lam[1]
        parity = set()
        for f in r.eigenfields[1:3]:
            even = np.array_equal(f[:, ::-1], f)
            assert even or np.array_equal(f[:, ::-1], -f)
            parity.add(even)
        assert parity == {True, False}

    @pytest.mark.parametrize("case", ["walls", "one-node-off", "small"])
    def test_unsplit_routes_match_dense(self, case, caplog):
        """Whole-operator Lanczos where no mirror holds exactly (a full
        30 x 40 mask whose -x and -y walls kill and whose others reflect,
        so only the wall code breaks both mirrors; a mask one node off
        symmetric) or where the halves would be dense (361 nodes, halves
        of 171 and 190)."""
        k = 12
        if case == "walls":
            labels = np.array([NEUMANN, DIRICHLET, NEUMANN, DIRICHLET])
            dom = GridDomain("walls", 1 / 40, (0.0, 0.0),
                             np.ones((30, 40), dtype=bool),
                             labels.reshape(4, 1, 1))
            bc = "mixed"
        elif case == "one-node-off":
            rows = ["1" * 40] * 30
            rows[3] = "0" + "1" * 39
            dom = build_domain(DomainSpec("custom_mask", {"rows": rows}, 16,
                                          "dirichlet"))
            bc = "dirichlet"
        else:
            dom, bc, k = rect(resolution=20), "dirichlet", 4
        op = assemble_laplacian(dom, bc)
        with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
            r = solve_eigs(op, k=k, seed=0)
        x0, y0, x1, y1 = dom.bbox  # sigma = -1/L^2, L the bbox diagonal
        sigma = -1.0 / ((x1 - x0) ** 2 + (y1 - y0) ** 2)
        assert _routes(caplog)[-1] == (f"solve_eigs {dom.name!r}: Lanczos, "
                                       f"n={op.n}, sigma={sigma:.6g}")
        want = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True)[:k]
        np.testing.assert_allclose(r.eigenvalues, want, rtol=1e-10,
                                   atol=1e-10)

    def test_wall_code_refuses_x_mirror(self, caplog):
        """A full mask, symmetric both ways, whose -x walls alone kill: the
        left-right mirror maps them onto reflecting walls, so B does not
        commute with it; the up-down mirror holds and is taken.  So too on
        the rectangle with Dirichlet left and Neumann elsewhere, whose mask
        already breaks the left-right mirror."""
        labels = np.array([NEUMANN, DIRICHLET, NEUMANN, NEUMANN])
        walls = GridDomain("walls", 1 / 40, (0.0, 0.0),
                           np.ones((30, 40), dtype=bool),
                           labels.reshape(4, 1, 1))
        left = build_domain(DomainSpec(
            "rectangle", {"width": 2.0, "height": 1.0}, 48, "neumann",
            bc_overrides={"left": "dirichlet"}))
        for dom in (walls, left):
            op = assemble_laplacian(dom, "mixed")
            assert spectral._mirror(op)[0] == "y"
            with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
                r = solve_eigs(op, k=12, seed=0)
            assert "Lanczos on y-mirror halves" in _routes(caplog)[-1]
            want = scipy.linalg.eigh(op.matrix.toarray(),
                                     eigvals_only=True)[:12]
            np.testing.assert_allclose(r.eigenvalues, want, rtol=1e-10,
                                       atol=1e-10)

    def test_dirichlet_disk_takes_x_mirror(self):
        """At r=150 the circle passes within rounding of lattice nodes; the
        active-node rule keeps the mask symmetric, so B commutes with the
        left-right mirror."""
        dom = build_domain(DomainSpec("disk", {}, 150, "dirichlet"))
        assert spectral._mirror(assemble_laplacian(dom, "dirichlet"))[0] == "x"

    def test_dense_route_logged(self, caplog):
        op = assemble_laplacian(rect(resolution=16), "dirichlet")
        with caplog.at_level(logging.DEBUG, logger="eigenwalk"):
            solve_eigs(op, k=2, seed=0)
        assert _routes(caplog) == [f"solve_eigs 'rectangle': dense, n={op.n}"]

    @pytest.mark.parametrize("case", ["walls", "dumbbell-D"])
    def test_no_convergence_names_the_block(self, case, monkeypatch):
        """A Lanczos run that stops short raises SpectralError naming its
        block and how many pairs converged: B itself on the unsplit route
        (the "walls" mask of test_unsplit_routes_match_dense), the odd
        half on the split one, after the even half has solved."""
        if case == "walls":
            labels = np.array([NEUMANN, DIRICHLET, NEUMANN, DIRICHLET])
            dom = GridDomain("walls", 1 / 40, (0.0, 0.0),
                             np.ones((30, 40), dtype=bool),
                             labels.reshape(4, 1, 1))
            op = assemble_laplacian(dom, "mixed")
            fail_at, what = 1, f"'walls' (n={op.n})"
        else:
            spec, bc = MIRRORED[case]
            op = assemble_laplacian(build_domain(spec), bc)
            n_odd = spectral._parity_bases(spectral._mirror(op)[1])[1].shape[1]
            fail_at = 2
            what = f"the odd x-mirror half of {op.dom.name!r} (n={n_odd})"
        real, calls = spectral.eigsh, []

        def eigsh(A, k, **kw):
            calls.append(A.shape[0])
            if len(calls) < fail_at:
                return real(A, k, **kw)
            raise ArpackNoConvergence("stopped", np.ones(5),
                                      np.ones((A.shape[0], 5)))

        monkeypatch.setattr(spectral, "eigsh", eigsh)
        with pytest.raises(SpectralError) as err:
            solve_eigs(op, k=12, seed=0)
        assert str(err.value).startswith(
            f"Lanczos converged only 5/12 eigenpairs on {what};")
        assert isinstance(err.value.__cause__, ArpackNoConvergence)
        assert len(calls) == fail_at


# ---------------------------------------------------------------------------
# heat flow


class TestHeat:
    def test_eigenfield_decays_at_its_own_rate(self, sq128d):
        phi1 = sq128d.eigenfields[0]
        hs = heat_semigroup(sq128d, phi1, 0.1)
        want = math.exp(-sq128d.eigenvalues[0] * 0.1) * phi1
        assert np.abs(hs.field - want).max() < 1e-10

    def test_zero_stays_zero(self, sq128d):
        hs = heat_semigroup(sq128d, np.zeros(sq128d.dom.mask.shape), 0.5)
        assert np.abs(hs.field).max() == 0.0
        assert hs.truncation_bound == 0.0

    def test_time_zero_is_basis_projection(self, sq128d):
        op = sq128d.operator
        f0 = op.field_to_vector(np.ones(sq128d.dom.mask.shape))
        proj = np.zeros_like(f0)
        for g in sq128d.eigenfields:
            v = op.field_to_vector(g)
            c = float((op.masses * v * f0).sum() / (op.masses * v * v).sum())
            proj += c * v
        hs = heat_semigroup(sq128d, np.ones(sq128d.dom.mask.shape), 0.0)
        assert np.abs(op.field_to_vector(hs.field) - proj).max() < 1e-12

    def test_survival_in_unit_range_up_to_truncation(self, sq128d):
        for t in (0.01, 0.05, 0.1):
            q = survival_profile(sq128d, t)
            vals = q.field[sq128d.dom.mask]
            slack = q.truncation_bound + 1e-12
            assert vals.min() >= -slack
            assert vals.max() <= 1.0 + slack

    def test_survival_mass_decreasing(self, sq128d):
        m = sq128d.operator.masses
        totals = []
        for t in (0.01, 0.05, 0.1, 0.5):
            q = survival_profile(sq128d, t)
            totals.append(float((m * sq128d.operator.field_to_vector(q.field)).sum()))
        assert all(a > b for a, b in zip(totals, totals[1:]))
        assert totals[-1] > 0

    def test_survival_requires_dirichlet(self, dumbbell_n):
        with pytest.raises(ValueError, match="[Dd]irichlet"):
            survival_profile(dumbbell_n, 0.1)

    def test_truncation_guard_raises(self, sq128d):
        with pytest.raises(SpectralError, match="truncation"):
            heat_semigroup(sq128d, np.ones(sq128d.dom.mask.shape), 0.0,
                           max_truncation=1e-12)

    def test_negative_time_rejected(self, sq128d):
        with pytest.raises(ValueError):
            heat_semigroup(sq128d, np.ones(sq128d.dom.mask.shape), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, sq128d, t):
        """exp(-lam t) turns NaN and infinite times into NaN fields, so
        both are refused rather than evolved."""
        neumann = solve_eigs(assemble_laplacian(rect(resolution=16,
                                                     bc="neumann"),
                                                "neumann"), k=4, seed=0)
        with pytest.raises(ValueError, match="finite"):
            heat_semigroup(neumann, np.ones(neumann.dom.mask.shape), t)
        with pytest.raises(ValueError, match="finite"):
            survival_profile(sq128d, t)

    def test_equilibration_limit(self, dumbbell_n):
        dom = dumbbell_n.dom
        left = dom.regions["left_lobe"]
        m = dom.masses
        share = float((m * left).sum() / m.sum())
        hs = heat_semigroup(dumbbell_n, left.astype(float), 50.0)
        assert np.abs(hs.field[dom.mask] - share).max() < 1e-9

    def test_equilibration_rate(self, dumbbell_n):
        # Fit the deviation constant at one time, then the fitted envelope
        # C * exp(-mu2 t) must dominate later deviations: higher modes only
        # die faster.
        dom = dumbbell_n.dom
        left = dom.regions["left_lobe"]
        m = dom.masses
        share = float((m * left).sum() / m.sum())
        mu2 = dumbbell_n.eigenvalues[1]
        iy, ix = np.nonzero(left)
        xs, ys = dom.node_xy(iy, ix)
        j = np.argmin((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2)
        probe = (iy[j], ix[j])
        dev = {t: abs(heat_semigroup(dumbbell_n, left.astype(float), t)
                      .field[probe] - share)
               for t in (0.5, 1.0, 2.0)}
        C = dev[0.5] / math.exp(-mu2 * 0.5)
        assert C > 0.01  # the probe actually sees the slow mode
        for t in (1.0, 2.0):
            assert dev[t] <= C * math.exp(-mu2 * t) * (1 + 1e-9)

    def test_dumbbell_gap_structure(self, dumbbell_n):
        mu = dumbbell_n.eigenvalues
        assert mu[0] == 0.0
        assert mu[1] < 1.0       # neck bottleneck keeps the gap small
        assert mu[2] > 5 * mu[1]  # and well separated from the rest


class TestSurvivalEnvelope:
    def test_uniform_bound_at_three_times(self, sq128d):
        lam1 = sq128d.eigenvalues[0]
        eps_grid = np.geomspace(0.02, 2.0, 60)
        for t in (0.01, 0.05, 0.1):
            q = survival_profile(sq128d, t)
            lhs = q.field[sq128d.dom.mask].max() + q.truncation_bound
            rhs = min(zeta_bound(2, e) * math.exp(-(1 - e) * lam1 * t)
                      for e in eps_grid)
            assert lhs <= rhs


# ---------------------------------------------------------------------------
# closed-form companions


class TestClosedForms:
    def test_zeta_values(self):
        assert zeta_bound(2, 1.0) == pytest.approx(1.1658219907985623, rel=1e-12)
        assert zeta_bound(2, 0.25) == pytest.approx(1.7487329861978433, rel=1e-12)

    def test_zeta_large_eps_limit(self):
        # (1 + 1/sqrt(eps))^{n/2} -> 1, leaving the dimensional prefactor
        want = math.exp(0.5) * math.sqrt(2.0) / 4.0
        assert zeta_bound(2, 1e12) == pytest.approx(want, rel=1e-5)

    def test_zeta_errors(self):
        with pytest.raises(ValueError):
            zeta_bound(0, 1.0)
        with pytest.raises(ValueError):
            zeta_bound(2, 0.0)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=1.001, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_zeta_decreasing_in_eps(self, eps, factor):
        assert zeta_bound(2, eps * factor) < zeta_bound(2, eps)

    def test_classical_bounds_square(self):
        dom = rect(resolution=128, bc="neumann")
        cb = classical_bounds(dom)
        assert isinstance(cb, ClassicalBounds)
        assert cb.area == pytest.approx(1.0, abs=1e-12)
        assert cb.mu2_upper == pytest.approx(4 * math.pi, rel=1e-12)
        assert cb.mu2_lower == pytest.approx(0.5, abs=2 * dom.h)
        assert cb.mu2_lower <= math.pi ** 2 <= cb.mu2_upper
        assert cb.diameter == pytest.approx(diameter(dom), rel=0)

    def test_classical_lower_bound_dropped_off_convex(self):
        """On a Neumann dumbbell mu_2 falls below 1/diam^2, so the bracket
        reports no diameter lower bound there."""
        dom = build_domain(DomainSpec(
            "dumbbell", {"neck_width": 0.05, "neck_length": 1.0}, 256,
            bc_default="neumann"))
        cb = classical_bounds(dom)
        assert cb.mu2_lower == 0.0
        mu2 = solve_eigs(assemble_laplacian(dom, "neumann"), k=2).eigenvalues[1]
        assert cb.mu2_lower <= mu2 < 1.0 / cb.diameter ** 2 <= cb.mu2_upper


# ---------------------------------------------------------------------------
# exports


class TestExports:
    def test_grid_hash_sensitive_to_mask(self):
        a = rect(resolution=24)
        b = rect(resolution=25)
        assert grid_hash(a) != grid_hash(b)
        assert grid_hash(a) == grid_hash(rect(resolution=24))


# ---------------------------------------------------------------------------
# properties


@given(w=st.floats(min_value=0.5, max_value=2.0),
       h=st.floats(min_value=0.5, max_value=2.0),
       bc=st.sampled_from(["dirichlet", "neumann"]))
@settings(max_examples=10, deadline=None)
def test_random_rectangle_spectrum_contract(w, h, bc):
    dom = build_domain(DomainSpec(family="rectangle",
                                  params={"width": w, "height": h},
                                  resolution=16, bc_default=bc))
    r = solve_eigs(assemble_laplacian(dom, bc), k=4, seed=0)
    assert np.all(np.diff(r.eigenvalues) >= -1e-12)
    assert r.eigenvalues[0] >= 0.0
    assert np.all(r.residuals <= 1e-8 * (1 + np.abs(r.eigenvalues)))
    if bc == "neumann":
        assert r.eigenvalues[0] == 0.0
    else:
        assert r.eigenvalues[0] > 1.0


_HEAT_CACHE = {}


@given(t1=st.floats(min_value=0.0, max_value=1.0),
       dt=st.floats(min_value=0.01, max_value=2.0),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=20, deadline=None)
def test_heat_mass_norm_contracts(t1, dt, seed):
    if "r" not in _HEAT_CACHE:
        dom = rect(resolution=24)
        _HEAT_CACHE["r"] = solve_eigs(assemble_laplacian(dom, "dirichlet"),
                                      k=6, seed=0)
    r = _HEAT_CACHE["r"]
    rng = np.random.default_rng(seed)
    f0 = rng.standard_normal(r.dom.mask.shape)
    m = r.operator.masses

    def mass_norm(state):
        v = r.operator.field_to_vector(state.field)
        return float((m * v * v).sum())

    early = heat_semigroup(r, f0, t1)
    late = heat_semigroup(r, f0, t1 + dt)
    assert mass_norm(late) <= mass_norm(early) * (1 + 1e-12)
