"""Tests for lattice domain construction, level sets, and distances."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import eigenwalk.geometry as geo
from eigenwalk.geometry import (
    DIRICHLET,
    NEUMANN,
    DomainError,
    DomainSpec,
    build_domain,
    extract_level_set,
    set_distance,
)

import oracles


def unit_square(resolution=128, bc="dirichlet", overrides=None):
    return build_domain(DomainSpec(
        family="rectangle", params={"width": 1.0, "height": 1.0},
        resolution=resolution, bc_default=bc, bc_overrides=overrides or {}))


def sine_field(dom):
    X, Y = np.meshgrid(
        np.arange(dom.shape[1]) * dom.h + dom.origin[0],
        np.arange(dom.shape[0]) * dom.h + dom.origin[1])
    f = np.sin(np.pi * X) * np.sin(np.pi * Y)
    f[~dom.mask] = 0.0
    return f


# ---------------------------------------------------------------------------
# construction


def test_unit_square_dirichlet_lattice():
    dom = unit_square()
    assert dom.h == 1.0 / 128
    assert dom.n_active == 127 * 127
    assert dom.shape == (129, 129)


def test_unit_square_neumann_keeps_boundary_nodes_and_exact_area():
    dom = unit_square(bc="neumann")
    assert dom.n_active == 129 * 129
    assert abs(dom.masses.sum() - 1.0) < 1e-12
    assert abs(dom.area() - 1.0) < 1e-12


def test_disk_area_converges():
    dom = build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                  resolution=128))
    assert abs(dom.area() - math.pi) < 0.05


def test_disk_area_tightens_with_resolution():
    err = []
    for res in (32, 64, 128):
        dom = build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                      resolution=res))
        err.append(abs(dom.area() - math.pi))
    assert err[2] < err[1] < err[0]


def test_dumbbell_regions_and_neck_split():
    dom = build_domain(DomainSpec(
        family="dumbbell",
        params={"lobe_width": 1.0, "lobe_height": 1.0,
                "neck_width": 0.1, "neck_length": 0.5},
        resolution=256))
    assert sorted(dom.regions) == ["left_lobe", "neck", "right_lobe"]
    m = dom.mask.copy()
    m[dom.regions["neck"]] = False
    _, ncomp = ndimage.label(m, structure=np.array(
        [[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    assert ncomp == 2


def test_dumbbell_rejects_unresolvable_neck():
    with pytest.raises(DomainError, match="nodes across"):
        build_domain(DomainSpec(
            family="dumbbell",
            params={"lobe_width": 1.0, "lobe_height": 1.0,
                    "neck_width": 0.004, "neck_length": 0.5},
            resolution=64))


def test_octopus_regions():
    dom = build_domain(DomainSpec(
        family="octopus",
        params={"body_radius": 2.0, "tentacle_width": 0.1,
                "tentacle_length": 1.0, "tentacle_count": 1},
        resolution=256))
    assert "body" in dom.regions and "tentacle_0" in dom.regions
    assert dom.regions["tentacle_0"].sum() > 100
    assert not np.any(dom.regions["tentacle_0"] & dom.regions["body"])


def test_annulus_area():
    dom = build_domain(DomainSpec(
        family="annulus", params={"outer_radius": 1.0, "inner_radius": 0.4},
        resolution=128))
    assert abs(dom.area() - math.pi * (1.0 - 0.16)) < 0.06


def test_l_shape_area():
    dom = build_domain(DomainSpec(
        family="l_shape",
        params={"width": 1.0, "height": 1.0,
                "notch_width": 0.5, "notch_height": 0.5},
        resolution=64))
    assert abs(dom.area() - 0.75) < 0.05


def test_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(family="rectangle", params={"width": -1.0, "height": 1.0},
                   resolution=64)
    with pytest.raises(ValueError):
        DomainSpec(family="rectangle", params={"width": 1.0, "height": 1.0},
                   resolution=8)
    with pytest.raises(ValueError):
        DomainSpec(family="dumbbell",
                   params={"lobe_width": 1.0, "lobe_height": 0.3,
                           "neck_width": 0.5, "neck_length": 0.5},
                   resolution=64)
    with pytest.raises(ValueError):
        DomainSpec(family="octopus",
                   params={"body_radius": 0.2, "tentacle_width": 0.5,
                           "tentacle_length": 1.0, "tentacle_count": 2},
                   resolution=64)
    with pytest.raises((DomainError, ValueError)):
        build_domain(DomainSpec(family="nonsense", params={}, resolution=64))


@pytest.mark.parametrize("family, params", [
    ("dumbbell", {"lobe_height": 0.05}),
    ("octopus", {"body_radius": 0.1}),
], ids=["dumbbell", "octopus"])
def test_shape_checks_see_the_builder_defaults(family, params):
    """A lobe lower than the default neck (0.1 wide), or a body narrower
    than the default tentacle (0.2 wide), is refused when the spec is
    made, as when the width is written out."""
    with pytest.raises(DomainError, match="needs"):
        DomainSpec(family, params, 64)


def test_tentacle_count_must_be_an_integer():
    with pytest.raises(DomainError, match="tentacle_count must be an integer"):
        build_domain(DomainSpec("octopus", {"tentacle_count": 4.5}, 128))


def test_resolution_must_be_an_integer():
    with pytest.raises(DomainError, match="resolution must be an integer"):
        DomainSpec("rectangle", {}, 64.7)


def test_from_json_passes_resolution_through():
    with pytest.raises(DomainError, match="resolution must be an integer"):
        DomainSpec.from_json('{"family": "rectangle", "resolution": 64.7}')


# the default octopus arm (0.2 wide) resolves from r=100; below, 0.9 wide
SHAPES = {"disk": ("disk", {}), "annulus": ("annulus", {}),
          **{f"octopus-{n}": ("octopus", {"tentacle_count": n})
             for n in (2, 4, 8)}}


def shaped(key, res, bc):
    family, params = SHAPES[key]
    if family == "octopus" and res < 100:
        params = {**params, "tentacle_width": 0.9}
    return build_domain(DomainSpec(family, params, res, bc))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("key", sorted(SHAPES))
def test_shaped_masks_keep_lattice_mirrors(key, bc):
    """The shapes are symmetric under both lattice mirrors and, but for the
    two-armed octopus, the transpose; nodes on their boundary are decided
    by the active-node rule, not by rounding, so the masks are too."""
    for res in (20, 50, 100, 150, 200, 300):
        m = shaped(key, res, bc).mask
        assert np.array_equal(m, m[:, ::-1]), res
        assert np.array_equal(m, m[::-1]), res
        if key != "octopus-2":
            assert np.array_equal(m, m.T), res


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_drop_massless_is_a_fixpoint(key):
    """Every Neumann mask above holds a quarter cell at each node, so a
    second pass drops nothing."""
    for res in (20, 50, 100, 150, 200, 300):
        m = shaped(key, res, "neumann").mask
        assert np.array_equal(geo._drop_massless(m), m), res


def test_bc_overrides_only_for_rectangles():
    with pytest.raises((DomainError, ValueError)):
        build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                resolution=32,
                                bc_overrides={"left": "dirichlet"}))


def test_disconnected_mask_rejected():
    with pytest.raises(DomainError, match="connect"):
        build_domain(DomainSpec(
            family="custom_mask",
            params={"cell_size": 0.1,
                    "rows": ["11011", "11011", "11011"]},
            resolution=16))


def test_spec_json_roundtrip():
    spec = DomainSpec(family="dumbbell",
                      params={"lobe_width": 1.0, "lobe_height": 1.0,
                              "neck_width": 0.2, "neck_length": 0.5},
                      resolution=64, bc_default="neumann")
    back = DomainSpec.from_json(spec.to_json())
    assert back.family == spec.family
    assert back.params == spec.params
    assert back.resolution == spec.resolution
    assert back.bc_default == spec.bc_default


def test_spec_json_roundtrip_numpy_scalars():
    """The constructor takes numpy scalars as numbers; to_json writes them
    as the values the reader parses, so from_json builds the same
    domain."""
    spec = DomainSpec("octopus", {"body_radius": np.float32(0.7),
                                  "tentacle_width": np.float64(0.3),
                                  "tentacle_count": np.int64(3)},
                      np.int32(48), "neumann")
    back = DomainSpec.from_json(spec.to_json())
    assert back.params == {"body_radius": float(np.float32(0.7)),
                           "tentacle_width": 0.3, "tentacle_count": 3}
    assert back.resolution == 48
    assert build_digest(build_domain(back)) == build_digest(
        build_domain(spec))
    disk = DomainSpec("disk", {"radius": np.float32(0.5)}, 32)
    assert build_digest(build_domain(DomainSpec.from_json(
        disk.to_json()))) == build_digest(build_domain(disk))


def test_mixed_bc_rectangle_mass_and_labels():
    dom = unit_square(resolution=32, bc="neumann",
                      overrides={"left": "dirichlet"})
    # Dirichlet on one wall shaves half a cell column off the area.
    assert abs(dom.masses.sum() - (1.0 - dom.h / 2)) < 1e-12
    code = dom.wall_code[dom.mask]
    kill = sum(int(((code >> (4 + d)) & 1).sum()) for d in range(4))
    closed = sum(int(((code >> d) & 1 == 0).sum()) for d in range(4))
    assert 0 < kill < closed  # Dirichlet walls and Neumann walls
    assert kill == dom.mask.shape[0]  # the left side, one per row


@pytest.mark.parametrize("spec", [
    DomainSpec("rectangle", {"width": 2.0, "height": 1.0}, 24, "dirichlet",
               bc_overrides={"top": "neumann", "bottom": "neumann"}),
    DomainSpec("rectangle", {}, 16, "neumann", bc_overrides={"left": "dirichlet"}),
    DomainSpec("dumbbell", {"neck_width": 0.25, "neck_length": 0.5}, 40, "dirichlet"),
    DomainSpec("l_shape", {}, 20, "neumann"),
    DomainSpec("annulus", {}, 24, "dirichlet"),
], ids=["mixed_rect", "left_dirichlet", "dumbbell", "l_shape", "annulus"])
def test_wall_code_matches_scalar_scan(spec):
    dom = build_domain(spec)
    names = {"dirichlet": DIRICHLET, "neumann": NEUMANN}
    sides = [names[spec.bc_overrides.get(side, spec.bc_default)]
             for side in ("right", "left", "top", "bottom")]  # +x -x +y -y
    labels = np.broadcast_to(np.array(sides)[:, None, None], (4, *dom.shape))
    assert np.array_equal(dom.wall_code, oracles.wall_code(dom.mask, labels))
    assert dom.code("mixed") is dom.wall_code
    for label, mode in ((DIRICHLET, "dirichlet"), (NEUMANN, "neumann")):
        forced = np.full((4, *dom.shape), label)
        assert np.array_equal(dom.code(mode),
                              oracles.wall_code(dom.mask, forced))


def test_spec_rejects_non_finite_params():
    with pytest.raises(DomainError, match="finite"):
        DomainSpec("rectangle", {"width": math.inf, "height": 1.0})
    with pytest.raises(DomainError, match="finite"):
        DomainSpec("custom_mask", {"cell_size": math.inf, "rows": ["11"]})


@pytest.mark.parametrize("family, params", [
    ("l_shape", {"notch_width": 2.0}),
    ("disk", {"radiu": 1.0}),
    ("annulus", {"inner_radius": 2.0}),
    ("rectangle", {"widht": 2.0}),
    ("custom_mask", {}),
    ("disk", {"radius": True}),
    ("disk", {"radius": "x"}),
    ("disk", {"radius": [1]}),
    ("custom_mask", {"rows": "1111"}),
], ids=["notch", "typo", "inner", "rect_typo", "no_rows", "bool", "str",
        "list", "rows_str"])
def test_bad_params_refused_when_the_spec_is_made(family, params):
    """Every check that needs no lattice runs in DomainSpec(...), and so
    in from_json, for each family alike, before any build."""
    with pytest.raises(DomainError):
        DomainSpec(family, params, 64)
    with pytest.raises(DomainError):
        DomainSpec.from_json(json.dumps({"family": family, "params": params}))


@pytest.mark.parametrize("value", [np.float32("nan"), np.int64(0)],
                         ids=["float32_nan", "int64_zero"])
def test_numpy_scalars_are_checked_as_numbers(value):
    with pytest.raises(DomainError, match="disk: radius must be positive"):
        DomainSpec("disk", {"radius": value}, 64)


def test_changes_after_construction_do_not_reach_the_build():
    """The spec keeps read-only copies of params, bc_overrides and
    custom_mask's rows: changing the caller's dict or list afterwards
    changes neither the spec, nor its hash, nor what it builds, and the
    spec's own mappings refuse assignment."""
    params, rows = {"radius": 1.0}, list(L_ROWS)
    disk = DomainSpec("disk", params, 32)
    custom = DomainSpec("custom_mask", {"rows": rows}, 16)
    want = [DomainSpec("disk", {"radius": 1.0}, 32),
            DomainSpec("custom_mask", {"rows": L_ROWS}, 16)]
    hashes = [hash(disk), hash(custom)]
    params["radius"] = 2.0
    rows[0] = "0000"
    assert [disk, custom] == want
    assert [hash(disk), hash(custom)] == hashes
    assert disk.params == {"radius": 1.0}
    assert custom.params["rows"] == tuple(L_ROWS)
    assert build_domain(disk).bbox == (-1.0, -1.0, 1.0, 1.0)
    for got, spec in zip((disk, custom), want):
        assert build_digest(build_domain(got)) == build_digest(
            build_domain(spec))
    with pytest.raises(TypeError):
        disk.params["radius"] = 2.0
    rect = DomainSpec("rectangle", {}, 32, bc_overrides={"left": "neumann"})
    with pytest.raises(TypeError):
        rect.bc_overrides["left"] = "dirichlet"


@pytest.mark.parametrize("family, overrides", [
    ("rectangle", {"lefft": "neumann"}),
    ("disk", {"left": "neumann"}),
], ids=["rectangle_typo", "disk"])
def test_bc_overrides_checked_at_construction(family, overrides):
    with pytest.raises(DomainError, match="bc_overrides name unknown parts"):
        DomainSpec(family, {}, 32, bc_overrides=overrides)


@pytest.mark.parametrize("text, key", [
    ('{"famly": "disk"}', "famly"),
    ('{"family": "disk", "resolutoin": 64}', "resolutoin"),
    ('[1, 2]', "JSON object"),
    ('{"family": "disk", "params": [1]}', "params"),
    ('{"family": "rectangle", "bc_overrides": ["left"]}', "bc_overrides"),
    ('{"resolution": 64}', "family"),
    ('{"family": ["disk"]}', "family"),
], ids=["typo_family", "typo_resolution", "array", "params_list",
        "overrides_list", "no_family", "family_list"])
def test_from_json_refuses_malformed_documents(text, key):
    with pytest.raises(DomainError, match=key):
        DomainSpec.from_json(text)


L_ROWS = ["1100", "1100", "1111", "1111"]


def default_params(family):
    """The family's defaults; custom_mask's rows have none, so an L."""
    return {"rows": L_ROWS} if family == "custom_mask" else {}


@pytest.mark.parametrize("family", sorted(geo._FAMILIES))
def test_every_reader_refuses_an_unknown_key(family):
    """Each family's reader names an unknown parameter at construction;
    every family but the rectangle also refuses any bc_overrides."""
    params = default_params(family)
    with pytest.raises(DomainError, match="unknown params.*bogus"):
        DomainSpec(family, {**params, "bogus": 1.0}, 128)
    if family != "rectangle":
        with pytest.raises(DomainError, match="bc_overrides"):
            DomainSpec(family, params, 128, bc_overrides={"left": "neumann"})


# sha256 prefixes of (shape, h, origin), the mask, code(m) for m = mixed,
# dirichlet and neumann, the masses and the regions, recorded before each
# family was split into a reader and a builder.  Families at their default
# parameters; the default dumbbell neck and octopus tentacle need r >= 100.
BUILD_PINS = {
    ("rectangle", "dirichlet", 64): "c91f0fb93390e845",
    ("rectangle", "neumann", 64): "d4969b9f5c4d8c86",
    ("disk", "dirichlet", 64): "7188ae84093f8b81",
    ("disk", "neumann", 64): "bbd93b6d9e4054d9",
    ("annulus", "dirichlet", 64): "9c12a9297bf5c554",
    ("annulus", "neumann", 64): "b01d1651fb6f1f29",
    ("dumbbell", "dirichlet", 128): "379f5c599af581f2",
    ("dumbbell", "neumann", 128): "2c490020043f203a",
    ("octopus", "dirichlet", 128): "9a808a4ab9d3c08b",
    ("octopus", "neumann", 128): "5f5f1161de81bf25",
    ("l_shape", "dirichlet", 64): "3defa1e46da96869",
    ("l_shape", "neumann", 64): "162d5e2ed041b246",
    ("custom_mask", "dirichlet", 64): "32c9a470edc7705d",
    ("custom_mask", "neumann", 64): "277d14056d7c4c25",
}
MIXED_RECT = DomainSpec("rectangle", {"width": 2.0, "height": 1.0}, 64,
                        "dirichlet",
                        bc_overrides={"top": "neumann", "bottom": "neumann"})


def build_digest(dom):
    h = hashlib.sha256(repr((dom.shape, dom.h, dom.origin)).encode())
    for a in (dom.mask, *(dom.code(m) for m in ("mixed", "dirichlet",
                                                "neumann")), dom.masses):
        h.update(a.tobytes())
    for key in sorted(dom.regions):
        h.update(key.encode())
        h.update(dom.regions[key].tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("family, bc, res", sorted(BUILD_PINS),
                         ids=[f"{f}-{bc}" for f, bc, _ in sorted(BUILD_PINS)])
def test_build_pinned(family, bc, res):
    dom = build_domain(DomainSpec(family, default_params(family), res, bc))
    assert build_digest(dom) == BUILD_PINS[family, bc, res]


def test_mixed_rectangle_build_pinned():
    assert build_digest(build_domain(MIXED_RECT)) == "3c6ece6d08a3a869"


def random_shape(family, res, bc, rng, aligned=False):
    """A spec of a shaped family with random parameters that builds at res:
    necks and arms drawn at least 4.5 nodes across.  An aligned dumbbell or
    L puts its corners on lattice nodes, where the diagonal probes decide
    re-entrant corners."""
    if family == "disk":
        return DomainSpec(family, {"radius": rng.uniform(0.2, 3.0)}, res, bc)
    if family == "annulus":
        ro = rng.uniform(0.5, 2.0)
        return DomainSpec(family, {"outer_radius": ro,
                                   "inner_radius": ro * rng.uniform(0.1, 0.9)},
                          res, bc)
    if family == "l_shape" and aligned:  # corners on nodes: h = 1/res
        m = int(rng.integers(res // 4, res))
        return DomainSpec(family, {
            "width": 1.0, "height": m / res,
            "notch_width": int(rng.integers(1, res)) / res,
            "notch_height": int(rng.integers(1, m)) / res}, res, bc)
    if family == "l_shape":
        w, ht = rng.uniform(0.5, 2.0, size=2)
        return DomainSpec(family, {"width": w, "height": ht,
                                   "notch_width": w * rng.uniform(0.1, 0.9),
                                   "notch_height": ht * rng.uniform(0.1, 0.9)},
                          res, bc)
    if family == "dumbbell" and aligned:  # corners on nodes: h = 1/res
        p = int(rng.integers(res // 4, res // 2))
        lh = int(rng.integers(12, res // 2))
        return DomainSpec(family, {
            "lobe_width": p / res, "neck_length": (res - 2 * p) / res,
            "lobe_height": lh / res,
            "neck_width": (lh - 2 * int(rng.integers(1, lh // 2 - 2))) / res},
            res, bc)
    if family == "dumbbell":
        lw, lh, nl = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), \
            rng.uniform(0.1, 1.0)
        h = max(2 * lw + nl, lh) / res
        return DomainSpec(family, {
            "lobe_width": lw, "lobe_height": lh, "neck_length": nl,
            "neck_width": rng.uniform(min(4.5 * h, 0.5 * lh), 0.9 * lh)},
            res, bc)
    rb, tl = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.5)
    h = 2 * (rb + tl + rb) / res  # the bounding box is at most this wide
    return DomainSpec(family, {
        "body_radius": rb, "tentacle_length": tl,
        "tentacle_count": int(rng.integers(1, 9)),
        "tentacle_width": rng.uniform(min(4.5 * h, 0.5 * rb), 0.9 * rb)},
        res, bc)


@pytest.mark.parametrize("res", [40, 97, 181])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("family", ["annulus", "disk", "dumbbell",
                                    "l_shape", "octopus"])
def test_band_raster_matches_whole_lattice_probes(family, bc, res,
                                                  monkeypatch):
    """_raster takes the 8 offset probes on the boundary band only; mask,
    wall codes, masses and regions are bit for bit those of
    oracles.raster, which takes all 9 probes at every node, on three
    random specs per family, resolution and wall condition, one of them
    aligned."""
    rng = np.random.default_rng([res, len(family), bc == "neumann"])
    specs = [random_shape(family, res, bc, rng, aligned)
             for aligned in (False, False, True)]
    band = [build_digest(build_domain(spec)) for spec in specs]
    monkeypatch.setattr(geo, "_raster", oracles.raster)
    assert band == [build_digest(build_domain(spec)) for spec in specs]


# specs equal as values: the parsed parameters, resolution, bc_default and
# name agree, however they were written
EQUAL_SPECS = {
    "defaults": (DomainSpec("disk", {}, 32),
                 DomainSpec("disk", {"radius": 1.0}, 32)),
    "l_shape_notch": (DomainSpec("l_shape", {"width": 2.0}, 32),
                      DomainSpec("l_shape", {
                          "width": 2.0, "height": 1.0, "notch_width": 1.0,
                          "notch_height": 0.5}, 32)),
    "numpy_scalars": (DomainSpec("octopus", {"body_radius": 0.75,
                                             "tentacle_width": 0.5,
                                             "tentacle_count": 3}, 48),
                      DomainSpec("octopus", {"body_radius": np.float32(0.75),
                                             "tentacle_width": np.float64(0.5),
                                             "tentacle_count": np.int64(3)},
                                 np.int32(48))),
    "override_is_default": (DomainSpec("rectangle", {}, 32, "neumann"),
                            DomainSpec("rectangle", {}, 32, "neumann",
                                       bc_overrides={"top": "neumann"})),
    "rows_tuple": (DomainSpec("custom_mask", {"rows": L_ROWS}, 16),
                   DomainSpec("custom_mask", {"rows": tuple(L_ROWS),
                                              "cell_size": 1 / 64}, 16)),
}


@pytest.mark.parametrize("key", sorted(EQUAL_SPECS))
def test_specs_that_build_the_same_domain_are_equal(key):
    a, b = EQUAL_SPECS[key]
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert build_digest(build_domain(a)) == build_digest(build_domain(b))


def test_specs_with_another_parsed_value_are_unequal():
    disk = DomainSpec("disk", {}, 32)
    for other in (DomainSpec("disk", {"radius": 1.0 + 2 ** -52}, 32),
                  DomainSpec("disk", {}, 33),
                  DomainSpec("disk", {}, 32, "neumann"),
                  DomainSpec("disk", {}, 32, name="unit disk"),
                  DomainSpec("annulus", {}, 32)):
        assert disk != other
    rect = DomainSpec("rectangle", {}, 32, "neumann")
    assert rect != DomainSpec("rectangle", {}, 32, "neumann",
                              bc_overrides={"top": "dirichlet"})
    assert disk != "disk"


# one spec per family whose half resolution builds too
VALUE_SPECS = [
    DomainSpec("rectangle", {"width": 2.0}, 64, "neumann",
               bc_overrides={"left": "dirichlet"}),
    DomainSpec("disk", {"radius": 0.5}, 64),
    DomainSpec("annulus", {}, 64, "neumann"),
    DomainSpec("dumbbell", {"neck_width": 0.4}, 64),
    DomainSpec("octopus", {"tentacle_width": 0.9, "tentacle_count": 3}, 64,
               "neumann"),
    DomainSpec("l_shape", {"width": 1.5}, 64, "neumann"),
    DomainSpec("custom_mask", {"rows": L_ROWS, "cell_size": 0.25}, 64,
               name="L"),
]


@pytest.mark.parametrize("spec", VALUE_SPECS,
                         ids=[s.family for s in VALUE_SPECS])
def test_spec_round_trips_to_an_equal_spec(spec):
    """pickle, deepcopy and JSON give a spec equal to the original, which
    builds the same bits; dataclasses.replace gives the spec at another
    resolution, hashable and equal to one made directly."""
    digest = build_digest(build_domain(spec))
    for how, back in (("pickle", pickle.loads(pickle.dumps(spec))),
                      ("deepcopy", copy.deepcopy(spec)),
                      ("json", DomainSpec.from_json(spec.to_json()))):
        assert back == spec and hash(back) == hash(spec), how
        assert build_digest(build_domain(back)) == digest, how
    half = dataclasses.replace(spec, resolution=spec.resolution // 2)
    direct = DomainSpec(spec.family, dict(spec.params), spec.resolution // 2,
                        spec.bc_default, dict(spec.bc_overrides), spec.name)
    assert half == direct and hash(half) == hash(direct)
    assert build_digest(build_domain(half)) == build_digest(
        build_domain(direct))


def build_outcome(spec):
    """build_digest of the domain, or the message of its DomainError."""
    try:
        return build_digest(build_domain(spec))
    except DomainError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(geo._FAMILIES)),
       res=st.integers(16, 64), bc=st.sampled_from(["dirichlet", "neumann"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_equal_specs_build_identical_domains(family, res, bc, seed):
    """A random spec and its twin, written with numpy scalars, a list of
    rows and every rectangle side the spec leaves at bc_default named in
    bc_overrides, are equal and hash equal, and build the same mask, wall
    codes and masses (or fail with the same DomainError)."""
    rng = np.random.default_rng(seed)
    if family == "rectangle":
        sides = ("left", "right", "bottom", "top")
        spec = DomainSpec(family, {"width": rng.uniform(0.5, 2.0),
                                   "height": rng.uniform(0.5, 2.0)}, res, bc,
                          {s: str(rng.choice(["dirichlet", "neumann"]))
                           for s in sides if rng.uniform() < 0.5})
    elif family == "custom_mask":
        shape = rng.integers(1, 8, size=2)
        rows = ["".join(r) for r in rng.choice(list("1#xX0"), size=shape)]
        spec = DomainSpec(family, {"rows": rows,
                                   "cell_size": rng.uniform(0.01, 1.0)},
                          res, bc)
    else:
        spec = random_shape(family, res, bc, rng)
    params = {key: (np.int64(v) if isinstance(v, int) else list(v)
                    if isinstance(v, tuple) else np.float64(v))
              for key, v in spec.params.items()}
    overrides = ({s: bc for s in ("left", "right", "bottom", "top")}
                 if family == "rectangle" else {})
    twin = DomainSpec(family, params, np.int64(res), bc,
                      {**overrides, **spec.bc_overrides})
    assert twin == spec and hash(twin) == hash(spec)
    assert build_outcome(twin) == build_outcome(spec)


def test_custom_mask_refuses_pgm_and_needs_rows():
    """custom_mask is built from rows alone: a raster file name is an
    unknown parameter, and a spec without rows names the missing key."""
    with pytest.raises(DomainError, match="pgm"):
        build_domain(DomainSpec("custom_mask", {"pgm": "m.pgm"}, 16))
    with pytest.raises(DomainError, match="rows"):
        build_domain(DomainSpec("custom_mask", {"cell_size": 0.1}, 16))


def test_build_is_deterministic():
    a = build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                resolution=64))
    b = build_domain(DomainSpec(family="disk", params={"radius": 1.0},
                                resolution=64))
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.masses, b.masses)


def test_contains_matches_mask():
    dom = unit_square(resolution=32)
    assert dom.contains(0.5, 0.5)
    assert not dom.contains(1.2, 0.5)
    xs, ys = np.array([0.5, 1.2]), np.array([0.5, 0.5])
    assert np.array_equal(dom.contains(xs, ys), [True, False])


def test_contains_broadcasts_like_nearest_node():
    """A scalar and an array coordinate, or a column and a row, broadcast
    as in nearest_node."""
    dom = unit_square(resolution=16)
    assert type(dom.contains(0.5, 0.3)) is bool
    got = dom.contains(0.5, np.array([0.3, 0.4]))
    assert got.shape == (2,) and got.all()
    xs, ys = np.array([[0.5], [0.9], [1.2]]), np.array([0.3, 0.98, -0.2])
    got = dom.contains(xs, ys)
    iy, ix = np.broadcast_arrays(*dom.nearest_node(xs, ys))
    on_grid = (ix < dom.shape[1]) & (iy >= 0)
    want = np.zeros((3, 3), dtype=bool)
    want[on_grid] = dom.mask[iy[on_grid], ix[on_grid]]
    assert got.shape == (3, 3) and np.array_equal(got, want)
    assert want.any() and not want.all()


def test_non_finite_coordinates():
    """contains says False and nearest_node raises a ValueError that is
    not a DomainError (the domain is sound, the point is not), with no
    numpy cast warning, for coordinates that cannot index the lattice."""
    dom = unit_square(resolution=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (math.nan, math.inf, -math.inf, 1e300):
            assert not dom.contains(x, 0.3)
            assert not dom.contains(0.3, x)
            with pytest.raises(ValueError) as info:
                dom.nearest_node(x, 0.3)
            assert not isinstance(info.value, DomainError)
            with pytest.raises(ValueError) as info:
                dom.nearest_node(np.array([0.5, 0.5]), np.array([0.3, x]))
            assert not isinstance(info.value, DomainError)
        assert np.array_equal(dom.contains(np.array([0.5, math.nan]),
                                           np.array([0.3, 0.3])),
                              [True, False])
        assert dom.nearest_node(0.5, 0.25) == (8, 16)


# ---------------------------------------------------------------------------
# level sets


def test_level_set_mid_level_closed_curve():
    dom = unit_square()
    ls = extract_level_set(dom, sine_field(dom), 0.5)
    assert len(ls.polylines) == 1
    poly = ls.polylines[0]
    assert np.allclose(poly[0], poly[-1])
    vals = np.sin(np.pi * poly[:, 0]) * np.sin(np.pi * poly[:, 1])
    # |grad| <= pi, so a vertex within 2h of the curve has value error
    # at most 2 pi h; observed is ~100x tighter.
    assert np.abs(vals - 0.5).max() < 2 * math.pi * dom.h


def test_level_set_peak_is_degenerate_point():
    dom = unit_square()
    ls = extract_level_set(dom, sine_field(dom), 1.0)
    assert len(ls.polylines) == 1
    assert len(ls.polylines[0]) == 1
    assert np.allclose(ls.polylines[0][0], [0.5, 0.5])


def test_level_set_constant_field_is_empty():
    dom = unit_square()
    f = np.where(dom.mask, 0.8, 0.0)
    ls = extract_level_set(dom, f, 0.5)
    assert ls.polylines == []


def test_level_set_rejects_nan_and_bad_eta():
    dom = unit_square(resolution=32)
    f = sine_field(dom)
    bad = f.copy()
    bad[16, 16] = np.nan
    with pytest.raises(ValueError):
        extract_level_set(dom, bad, 0.5)
    for eta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            extract_level_set(dom, f, eta)


def test_superlevel_masks_nest():
    dom = unit_square()
    f = sine_field(dom)
    lo = extract_level_set(dom, f, 0.3)
    hi = extract_level_set(dom, f, 0.7)
    assert not np.any(hi.superlevel_mask & ~lo.superlevel_mask)


def test_level_vertices_exact_on_linear_field():
    dom = unit_square()
    X, _ = np.meshgrid(np.arange(dom.shape[1]) * dom.h,
                       np.arange(dom.shape[0]) * dom.h)
    f = (X + 0.2) * dom.mask
    peak = np.abs(f[dom.mask]).max()
    ls = extract_level_set(dom, f, 0.5)
    assert ls.polylines
    for poly in ls.polylines:
        assert np.abs((poly[:, 0] + 0.2) / peak - 0.5).max() < 1e-12


def test_level_set_symmetry():
    dom = unit_square()
    ls = extract_level_set(dom, sine_field(dom), 0.5)
    poly = ls.polylines[0]
    mirrored = poly.copy()
    mirrored[:, 0] = 1.0 - mirrored[:, 0]
    # the mirrored curve is the same point set
    assert set_distance([poly], [mirrored]) < 1e-9


@settings(max_examples=15, deadline=None)
@given(e1=st.floats(0.15, 0.9), e2=st.floats(0.15, 0.9))
def test_superlevel_nesting_property(e1, e2):
    dom = unit_square(resolution=32)
    f = sine_field(dom)
    lo, hi = sorted((e1, e2))
    a = extract_level_set(dom, f, lo)
    b = extract_level_set(dom, f, hi)
    assert not np.any(b.superlevel_mask & ~a.superlevel_mask)


# Level-set pins.  Fields are sums of humps w * max(0, 1 - rho^2/r^2)^2 in
# bounding-box units (u, v), hump centre (a, b), so they and their level
# sets are built from +, -, *, / and max alone and are the same bits on any
# IEEE machine.  Each case pins a digest of the polylines at PIN_ETAS and
# set_distance between consecutive levels; they were recorded from the
# per-cell marcher and the four-branch set_distance this module replaced.
PIN_ETAS = (0.17, 0.37, 0.57, 0.77, 1.0)
_BELL = {"lobe_width": 1.0, "lobe_height": 1.0, "neck_width": 0.1,
         "neck_length": 0.5}
LEVEL_PINS = {
    "dumbbell_dirichlet": (
        DomainSpec("dumbbell", _BELL, 256, "dirichlet"),
        ((0.2, 0.5, 0.5, 1.0), (0.8, 0.45, 0.45, 0.8)), "e0362593bbedb50f",
        (0.0701085445109228, 0.06520223230348698, 0.07222306127614389,
         0.1742893946652734)),
    "octopus_dirichlet": (
        DomainSpec("octopus", {"body_radius": 1.0, "tentacle_width": 0.2,
                               "tentacle_length": 1.0, "tentacle_count": 4},
                   300, "dirichlet"),
        ((0.5, 0.5, 0.3, 1.0), (0.9, 0.5, 0.25, 0.7)), "075b49d8948e5544",
        (0.16885381675414818, 0.1570323273736606, 0.17393979303273624,
         0.4199048820299809)),
    "dumbbell_neumann": (
        DomainSpec("dumbbell", _BELL, 256, "neumann"),
        ((0.0, 0.3, 0.45, 1.0), (1.0, 0.7, 0.6, 0.9)), "516789dc6c9c464d",
        (0.0631036465913864, 0.05867315358977523, 0.06500517361423085,
         0.15297235163737433)),
    "square_dirichlet": (
        DomainSpec("rectangle", {"width": 1.0, "height": 1.0}, 128,
                   "dirichlet"),
        ((0.3, 0.35, 0.5, 1.0), (0.75, 0.7, 0.4, 0.85)), "ffd131bd7def946f",
        (0.06405395182475244, 0.06304137352977592, 0.07242823661763578,
         0.17146632110226714)),
}


def hump_field(dom, humps):
    x0, y0, x1, y1 = dom.bbox
    X, Y = dom.node_xy(*np.mgrid[0:dom.shape[0], 0:dom.shape[1]])
    u, v = (X - x0) / (x1 - x0), (Y - y0) / (y1 - y0)
    f = np.zeros(dom.shape)
    for a, b, r, w in humps:
        f += w * np.maximum(0.0, 1.0 - ((u - a) ** 2 + (v - b) ** 2)
                            / (r * r)) ** 2
    return f


def polyline_digest(polys):
    h = hashlib.sha256()
    for p in polys:
        h.update(np.int64(len(p)).tobytes())
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.hexdigest()[:16]


def assert_distance_pin(got, want):
    assert abs(got - want) <= 1e-15 * max(1.0, want), (got, want)


@pytest.mark.parametrize("name", sorted(LEVEL_PINS))
def test_level_sets_pinned(name):
    spec, humps, digest, dists = LEVEL_PINS[name]
    dom = build_domain(spec)
    f = hump_field(dom, humps)
    sets = [extract_level_set(dom, f, eta) for eta in PIN_ETAS]
    assert polyline_digest([p for s in sets for p in s.polylines]) == digest
    # eta = 1 touches only the peak node: one degenerate one-point polyline
    assert [len(p) for p in sets[-1].polylines] == [1]
    for i, want in enumerate(dists):
        assert_distance_pin(set_distance(sets[i], sets[i + 1]), want)


def test_saddle_cells_pinned():
    """A checkerboard field: every cell is saddle 5 (corners (0,0) and
    (1,1) high) or saddle 10, each with its corner average on both sides
    of eta = 0.5."""
    dom = build_domain(DomainSpec(
        "custom_mask", {"rows": ["11111"] * 3, "cell_size": 0.25}, 16))
    f = np.array([[1.0, 0.1, 0.9, 0.3, 0.6],
                  [0.2, 0.8, 0.4, 0.7, 0.1],
                  [0.9, 0.3, 0.6, 0.2, 0.8]])
    corners = (f[:-1, :-1], f[:-1, 1:], f[1:, 1:], f[1:, :-1])
    pattern = sum((c >= 0.5).astype(int) << k for k, c in enumerate(corners))
    high = sum(corners) / 4.0 >= 0.5
    assert set(zip(pattern.ravel().tolist(), high.ravel().tolist())) == {
        (5, False), (5, True), (10, False), (10, True)}

    sets = [extract_level_set(dom, f, eta) for eta in (0.25, 0.5, 0.75)]
    assert [polyline_digest(s.polylines) for s in sets] == [
        "7c0223f317044042", "dbf9f3c6bf86f4d6", "f016a4e245480d46"]
    for (i, j), want in zip(((0, 1), (1, 2), (0, 2)),
                            (0.054816126206689304, 0.06779076806833001,
                             0.13888888888888887)):
        got = set_distance(sets[i], sets[j])
        assert_distance_pin(got, want)
        assert abs(got - oracles.polyline_set_distance(
            sets[i].polylines, sets[j].polylines)) < 1e-12


# ---------------------------------------------------------------------------
# distances


def test_set_distance_parallel_segments():
    a = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    b = [np.array([[0.0, 0.3], [1.0, 0.3]])]
    assert set_distance(a, b) == pytest.approx(0.3, abs=1e-12)


def test_set_distance_crossing_is_zero():
    a = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    b = [np.array([[0.5, -0.1], [0.5, 0.1]])]
    assert set_distance(a, b) == 0.0


def test_set_distance_points_and_empty():
    a = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    assert set_distance(a, np.array([[2.0, 0.0]])) == pytest.approx(1.0)
    assert set_distance(a, np.empty((0, 2))) == math.inf
    # point to point, loose or as a one-vertex polyline
    assert set_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0
    assert set_distance([np.array([[0.0, 0.0]])],
                        np.array([[3.0, 4.0], [6.0, 8.0]])) == 5.0
    # a point lying on a segment
    assert set_distance(a, np.array([[0.25, 0.0]])) == 0.0
    assert set_distance([np.array([[0.5, 0.0]])], a) == 0.0


def test_set_distance_rejects_other_inputs():
    a = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    for bad in ([(2.0, 0.0), (3.0, 0.0)],       # a list of point tuples
                np.zeros((2, 3, 2)),           # a stack of polylines
                np.array([2.0, 0.0]),          # one bare point
                "geometry"):
        with pytest.raises(TypeError):
            set_distance(a, bad)
    for bad in ([np.array([[0.0, 1.0], [math.nan, 1.0]])],
                np.array([[math.inf, 0.0]])):
        with pytest.raises(ValueError, match="finite"):
            set_distance(a, bad)


def test_set_distance_one_vertex_polylines_match_oracle():
    """One-vertex polylines are zero-length segments; the oracle scans
    segments only, so it gets each such point doubled."""
    rng = np.random.default_rng(6)

    def doubled(polys):
        return [np.vstack([p, p]) if len(p) == 1 else p for p in polys]

    for _ in range(60):
        pa = [rng.uniform(-1, 1, size=(rng.integers(1, 5), 2))
              for _ in range(rng.integers(1, 4))]
        pb = [rng.uniform(-1, 1, size=(rng.integers(1, 5), 2))
              for _ in range(rng.integers(1, 4))]
        want = oracles.polyline_set_distance(doubled(pa), doubled(pb))
        assert abs(set_distance(pa, pb) - want) < 1e-12


def test_set_distance_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pa = [rng.uniform(-1, 1, size=(rng.integers(2, 6), 2))
              for _ in range(2)]
        pb = [rng.uniform(-1, 1, size=(rng.integers(2, 6), 2))
              for _ in range(2)]
        got = set_distance(pa, pb)
        want = oracles.polyline_set_distance(pa, pb)
        assert abs(got - want) < 1e-12


# Cases for the k-d tree prune in set_distance, each against the oracle.

def _circle(radius, n, phase=0.0):
    t = phase + np.linspace(0.0, 2.0 * math.pi, n + 1)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t)])


def test_set_distance_crossing_polylines():
    """Zigzags that cross: d_vv <= L, so the crossing test runs."""
    x = np.linspace(0.0, 1.0, 41)
    a = [np.column_stack([x, 0.05 * np.sin(40.0 * x)])]
    b = [np.column_stack([x, 0.05 * np.cos(37.0 * x) + 0.01])]
    assert oracles.polyline_set_distance(a, b) == 0.0
    assert set_distance(a, b) == 0.0
    # a single crossing, far along both polylines
    c = [np.array([[0.9, -1.0], [0.91, 1.0]])]
    assert set_distance(a, c) == 0.0 == set_distance(c, a)


def test_set_distance_concentric_circles():
    """Every vertex of either circle has candidate segments."""
    for radii, n in (((1.0, 1.3), (90, 130)), ((1.0, 1.0 + 1e-3), (70, 50))):
        a = [_circle(radii[0], n[0])]
        b = [_circle(radii[1], n[1], phase=0.01)]
        want = oracles.polyline_set_distance(a, b)
        assert abs(set_distance(a, b) - want) < 1e-12
        assert abs(set_distance(b, a) - want) < 1e-12


def test_set_distance_long_segment_next_to_short_ones():
    """One long segment makes r cover every vertex of the other side:
    candidate pairs come in several _BLOCK-sized chunks of query points."""
    x = np.linspace(-4.0, 4.0, 3 * geo._BLOCK + 7)
    fine = [np.column_stack([x, 0.3 + 0.1 * np.sin(3.0 * x)])]
    long = [np.array([[-5.0, 0.0], [5.0, 0.0]]), np.array([[6.0, 6.0]])]
    want = oracles.polyline_set_distance(
        fine, [long[0], np.vstack([long[1], long[1]])])
    assert want == pytest.approx(0.2, abs=1e-4)
    assert abs(set_distance(fine, long) - want) < 1e-12
    assert abs(set_distance(long, fine) - want) < 1e-12
    # the long segment crosses the fine polyline once, near its far end
    cut = [np.array([[3.9, -5.0], [3.9, 5.0]])]
    assert set_distance(fine, cut) == 0.0 == set_distance(cut, fine)


def test_set_distance_points_and_one_vertex_polylines_match_oracle():
    rng = np.random.default_rng(8)

    def doubled(polys):
        return [np.vstack([p, p]) if len(p) == 1 else p for p in polys]

    for _ in range(40):
        pts = rng.uniform(-1, 1, size=(rng.integers(1, 30), 2))
        polys = [rng.uniform(-1, 1, size=(rng.integers(1, 12), 2))
                 for _ in range(rng.integers(1, 4))]
        loose = [p[None, :] for p in pts]
        want = oracles.polyline_set_distance(doubled(loose), doubled(polys))
        assert abs(set_distance(pts, polys) - want) < 1e-12
        assert abs(set_distance(polys, pts) - want) < 1e-12
        other = rng.uniform(-1, 1, size=(rng.integers(1, 30), 2))
        want = oracles.polyline_set_distance(
            doubled(loose), doubled([p[None, :] for p in other]))
        assert abs(set_distance(pts, other) - want) < 1e-12
