"""Planar grid domains with labeled walls, and level-set geometry on them.

A domain is a boolean mask over a uniform vertex lattice: node (iy, ix) sits
at physical point (x0 + ix*h, y0 + iy*h).  The physical boundary is the
cell-edge polygon around the union of h-by-h cells centered on active nodes;
its unit walls lie between an active node and an inactive (or out-of-grid)
4-neighbor, and each is Dirichlet or Neumann.  The domain's wall code
(``wall_code``) is the one record of which walls exist and which kill;
``GridDomain.code`` gives it under a forced condition, ``realized_bc``
the condition it realizes.  Everything downstream (Laplacian assembly,
Brownian collision tests, distances) measures against this one polygon.

Active-node rule (``_raster``, for every family drawn from a closed shape):
a node is probed at itself and at 8 points 1e-9*h away along the axes and
diagonals.  Under Dirichlet walls it is active when all 9 probes lie in the
closed shape, so boundary nodes are excluded (pinned to zero and
eliminated); under Neumann walls when any probe does, so they are included
with fractional cell masses, less those that would hold no quarter cell.
The rounding of lattice coordinates decides nothing.  The centre probe is
taken at every node, the other 8 only on the boundary band: the nodes with
an 8-neighbor (or an off-lattice point, which counts as outside) whose
centre is classified differently.  A probe can disagree with its node's
centre only if the shape's boundary passes within 1e-9*h of the node.
Each family's shape is made of lines and of circles many cells in radius,
in pieces at least 4 nodes across or reaching the lattice's edge, so a
boundary that close leaves a neighbor, or the edge, on its far side: a
node off the band keeps its centre's class.  The one exception is an
annulus hole that holds no node.  The whole-lattice probes leave such an
annulus a disk too, except when the rim passes within 1e-9*h of a node;
the band rule leaves it a disk then as well.  The rectangle applies
the rule side by side, as its sides carry their own labels; custom masks
are taken as given.  Discrete eigenvalues of the reflecting Laplacian
converge at O(h^2) on lattice-aligned Neumann sides, but only at first
order on curved ones: mu_2 of the unit Neumann disk is +4.25% above
(j'_{1,1})^2 at resolution 64 and +2.07% at 128.

Families and their parameters, with defaults; every number must be a
positive, finite real (``tentacle_count`` an integer):

- rectangle: width (1.0), height (1.0).  The only family that takes
  bc_overrides, on its sides left, right, bottom and top.
- disk: radius (1.0).
- annulus: outer_radius (1.0), inner_radius (0.5) < outer_radius.
- dumbbell: two lobes joined by a centered neck; lobe_width (1.0),
  lobe_height (1.0), neck_width (0.1) < lobe_height, neck_length (0.5).
  Regions left_lobe, neck, right_lobe.
- octopus: a disk body with protruding rectangular tentacles;
  body_radius (1.0), tentacle_width (0.2) < body_radius,
  tentacle_length (1.0), tentacle_count (4).  Regions body, tentacle_<k>.
- l_shape: a rectangle less its top-right notch; width (1.0),
  height (1.0), notch_width (width/2) < width, notch_height (height/2)
  < height.
- custom_mask: rows (no default), a list of equal-length strings, top row
  first, where '1', '#', 'x' and 'X' mark active nodes; cell_size (1/64).

Each family is a reader and a builder (``_FAMILIES``).  The reader makes
every check that needs no lattice: unknown parameter keys and bc_overrides
parts, the type and range of each value, and the inequalities above.
``DomainSpec(...)`` runs it once and keeps what it parses; ``build_domain``
hands that to the builder, which makes the checks that need the spacing
h: a dumbbell neck or octopus tentacle under 4 nodes across, and a mask
that is empty or not 4-connected.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping

import numpy as np

DIRICHLET = 0
NEUMANN = 1

_BC_NAMES = {"dirichlet": DIRICHLET, "neumann": NEUMANN}
_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


class DomainError(ValueError):
    """Raised when a spec cannot be realized as a valid grid domain."""


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Recipe for a grid domain: family, numeric parameters, resolution
    (grid spacings across the longest bounding-box side), and boundary
    labels.  bc_overrides maps named parts (rectangle: left, right, bottom,
    top) to labels that replace bc_default there.  Construction runs the
    family's reader once, so every check that needs no lattice is made
    here and raises DomainError.  A spec is a value: params and
    bc_overrides are read-only copies, and specs compare and hash by
    family, parsed values, resolution, bc_default and name."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    resolution: int = 128
    bc_default: str = "dirichlet"
    bc_overrides: Mapping[str, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not _one_of(self.family, _FAMILIES):
            raise DomainError(f"unknown family {self.family!r}; "
                              f"have {sorted(_FAMILIES)}")
        res = _number("resolution", self.resolution, integer=True,
                      error=DomainError, least=16)
        if not _one_of(self.bc_default, _BC_NAMES):
            raise DomainError(f"bc_default must be one of {sorted(_BC_NAMES)}")
        for key in ("params", "bc_overrides"):
            given = getattr(self, key)
            if not isinstance(given, Mapping):
                raise DomainError(f"{key} must be a mapping, got "
                                  f"{type(given).__name__}")
            object.__setattr__(self, key, MappingProxyType({
                k: tuple(v) if k == "rows" and isinstance(v, list) else v
                for k, v in given.items()}))
        if not isinstance(self.name, str):
            raise DomainError(f"name must be a string, got {self.name!r}")
        object.__setattr__(self, "_key", (self.family, tuple(
            _FAMILIES[self.family][0](self)), res, self.bc_default, self.name))

    def __eq__(self, other):
        return isinstance(other, DomainSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):  # the read-only copies do not pickle
        return DomainSpec, (self.family, dict(self.params), self.resolution,
                            self.bc_default, dict(self.bc_overrides),
                            self.name)

    @staticmethod
    def from_json(text: str) -> "DomainSpec":
        """The spec a JSON object describes, with the constructor's
        defaults for absent keys; DomainError for text that is not a JSON
        object, a missing family or a key the constructor does not take."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"domain spec is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DomainError(f"domain spec must be a JSON object, got "
                              f"{type(doc).__name__}")
        keys = [f.name for f in fields(DomainSpec)]
        unknown = set(doc) - set(keys)
        if unknown:
            raise DomainError(f"unknown domain spec keys {sorted(unknown)}; "
                              f"have {keys}")
        if "family" not in doc:
            raise DomainError("domain spec needs a family")
        return DomainSpec(**doc)

    def to_json(self) -> str:
        """The spec as a JSON object that from_json reads back to the same
        build.  A number, numpy scalars included, is written as the Python
        int or float the reader parses it to."""
        def plain(value):
            if isinstance(value, numbers.Integral):
                return int(value)
            return float(value) if isinstance(value, numbers.Real) else value

        return json.dumps({
            "family": self.family,
            "params": {key: plain(v) for key, v in self.params.items()},
            "resolution": int(self.resolution),
            "bc_default": self.bc_default,
            "bc_overrides": dict(self.bc_overrides),
            "name": self.name,
        }, indent=2)


class GridDomain:
    """Immutable rasterized domain.

    ``labels`` is one wall label (DIRICHLET or NEUMANN) for every wall, or
    an array of them broadcast to (4, ny, nx), a label per direction
    (+x, -x, +y, -y) and node.  Any other label, or an h that is not
    positive and finite, raises DomainError.  Only the wall code is kept.

    Attributes
    ----------
    name : str
    h : float
        lattice spacing.
    origin : (float, float)
        physical coordinates of node (0, 0).
    mask : (ny, nx) bool, read-only
        True at active nodes.
    masses : (ny, nx) float, read-only
        finite-volume cell area attached to each node (0 off-domain).
    wall_code : (ny, nx) uint8, read-only
        open neighbors and Dirichlet walls per node under the domain's own
        labels (see ``wall_code``); ``code(bc_mode)`` gives it under a
        forced condition.
    regions : dict of named sub-masks (dumbbell: left_lobe, neck,
        right_lobe; octopus: body, tentacle_<k>).
    """

    def __init__(self, name: str, h: float, origin: tuple[float, float],
                 mask: np.ndarray, labels,
                 regions: dict[str, np.ndarray] | None = None):
        self.name = name
        self.h = _number("h", h, error=DomainError)
        self.origin = (float(origin[0]), float(origin[1]))
        self.mask = mask.astype(bool)
        self.mask.setflags(write=False)
        self.regions = {}
        for key, sub in (regions or {}).items():
            sub = sub & self.mask
            sub.setflags(write=False)
            self.regions[key] = sub
        self._validate_connected()
        bad = np.setdiff1d(labels, (DIRICHLET, NEUMANN))
        if bad.size:
            raise DomainError(f"wall label {bad[0]} is neither DIRICHLET "
                              f"({DIRICHLET}) nor NEUMANN ({NEUMANN})")
        self.wall_code = wall_code(self.mask, labels)
        self.wall_code.setflags(write=False)
        self.masses = _masses(_quarter_presence(self.mask, self.wall_code),
                              self.h)
        self.masses.setflags(write=False)

    def code(self, bc_mode: str) -> np.ndarray:
        """The wall code under bc_mode: the domain's own for 'mixed', or
        with every wall 'dirichlet' or every wall 'neumann'."""
        if not _one_of(bc_mode, (*_BC_NAMES, "mixed")):
            raise ValueError(f"bc_mode must be 'dirichlet', 'neumann' or "
                             f"'mixed', got {bc_mode!r}")
        return (self.wall_code if bc_mode == "mixed"
                else wall_code(self.mask, _BC_NAMES[bc_mode]))

    # -- basic measurements ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        ny, nx = self.mask.shape
        x0, y0 = self.origin
        return (x0, y0, x0 + (nx - 1) * self.h, y0 + (ny - 1) * self.h)

    @property
    def n_active(self) -> int:
        return int(self.mask.sum())

    def area(self) -> float:
        """n_active * h^2 when every wall is Dirichlet, else masses.sum(),
        the finite-volume area; on an all-Dirichlet domain that sum is smaller
        by the quarter cells cut at re-entrant corners."""
        if realized_bc(self.mask, self.wall_code) == "dirichlet":
            return self.n_active * self.h * self.h
        return float(self.masses.sum())

    def node_xy(self, iy, ix):
        """Physical coordinates of lattice indices (arrays ok)."""
        x0, y0 = self.origin
        return x0 + np.asarray(ix) * self.h, y0 + np.asarray(iy) * self.h

    def nearest_node(self, x, y):
        """Lattice indices of the node whose cell contains (x, y); raises
        ValueError for a coordinate that is not finite or too large to
        index."""
        x0, y0 = self.origin
        iy = np.rint((np.asarray(y, dtype=float) - y0) / self.h)
        ix = np.rint((np.asarray(x, dtype=float) - x0) / self.h)
        big = 2.0 ** 62  # no int64 index beyond it (nor at inf or nan)
        if not ((np.abs(iy) < big).all() and (np.abs(ix) < big).all()):
            raise ValueError(f"cannot index the lattice at ({x}, {y})")
        return iy.astype(int), ix.astype(int)

    def contains(self, x, y):
        """True where (x, y) lies in the cell of an active node (i.e.
        inside the cell-edge boundary polygon), elementwise over x and y
        broadcast together; False where a coordinate is not finite."""
        inside = active_cell(self.mask, self.origin, self.h, x, y)[2]
        return bool(inside) if np.ndim(inside) == 0 else inside

    def _validate_connected(self):
        # imported here: at module level it slows `import eigenwalk`
        from scipy import ndimage

        if not self.mask.any():
            raise DomainError("empty mask")
        _, count = ndimage.label(self.mask, structure=_FOUR_CONN)
        if count != 1:
            raise DomainError(f"mask has {count} 4-connected components; "
                              "domains must be connected")


def active_cell(mask: np.ndarray, origin, h: float, x, y):
    """(ix, iy, inside) for points (x, y), broadcast together, on the
    lattice of `mask` with node (0, 0) at `origin` and spacing h: the
    indices of the node whose cell holds each point, and whether that node
    is active.  A point that is not finite or whose cell is off the grid
    is outside, with indices 0.  The one "inside the domain" test, shared
    by GridDomain.contains and the walker's start checks."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    rx = np.rint((x - origin[0]) / h)
    ry = np.rint((y - origin[1]) / h)
    ny, nx = mask.shape
    on_grid = (rx >= 0) & (rx < nx) & (ry >= 0) & (ry < ny)
    ix = np.where(on_grid, rx, 0).astype(np.int64)
    iy = np.where(on_grid, ry, 0).astype(np.int64)
    return ix, iy, on_grid & mask[iy, ix]


# ---------------------------------------------------------------------------
# wall code and finite-volume masses


def wall_code(mask: np.ndarray, labels) -> np.ndarray:
    """Per-node wall code, (ny, nx) uint8: the one statement of which
    neighbor of a node is open and which wall kills.

    On an active node bit d (d = 0, 1, 2, 3 for +x, -x, +y, -y) is set when
    neighbor d is active, and bit 4+d when direction d is a Dirichlet wall;
    a direction with both bits clear is a Neumann wall.  Inactive nodes
    read 0.  ``labels`` is a label array broadcast to (4, ny, nx), or one
    label for every wall.
    """
    ny, nx = mask.shape
    nbr = np.zeros((4, ny, nx), dtype=bool)  # off-grid neighbors: inactive
    nbr[0, :, : nx - 1] = mask[:, 1:]
    nbr[1, :, 1:] = mask[:, : nx - 1]
    nbr[2, : ny - 1, :] = mask[1:, :]
    nbr[3, 1:, :] = mask[: ny - 1, :]
    kill = ~nbr & (np.asarray(labels) == DIRICHLET)
    code = np.zeros(mask.shape, dtype=np.uint8)
    for d in range(4):
        code[mask & nbr[d]] |= 1 << d
        code[mask & kill[d]] |= 16 << d
    return code


def realized_bc(mask: np.ndarray, code: np.ndarray) -> str:
    """The condition code realizes on mask's active nodes: 'dirichlet'
    when no wall reflects, 'neumann' when none kills, else 'mixed'."""
    code = code[mask]
    if (((code | code >> 4) & 0x0F) == 0x0F).all():
        return "dirichlet"
    return "mixed" if (code >> 4).any() else "neumann"


def _quarter_presence(mask: np.ndarray, code: np.ndarray) -> dict:
    """Per-node quarter-cell presence, keyed by quadrant sign pair (sx, sy).

    A node owns up to four quarter cells.  The (sx, sy) quarter is present
    when both axis directions are covered (neighbor active, or the wall
    there is Dirichlet, in which case the cell runs to the pinned wall;
    that choice keeps mixed-rectangle discrete eigenfunctions exact) and
    the quarter is not cut off by a missing diagonal between two active
    axis neighbors (re-entrant corner).  ``code`` is the wall code."""
    ny, nx = mask.shape
    out = {}
    for sx, dx in ((1, 0), (-1, 1)):  # dx, dy: wall code bits
        for sy, dy in ((1, 2), (-1, 3)):
            diag = np.zeros(mask.shape, dtype=bool)
            src_y = slice(1, ny) if sy > 0 else slice(0, ny - 1)
            dst_y = slice(0, ny - 1) if sy > 0 else slice(1, ny)
            src_x = slice(1, nx) if sx > 0 else slice(0, nx - 1)
            dst_x = slice(0, nx - 1) if sx > 0 else slice(1, nx)
            diag[dst_y, dst_x] = mask[src_y, src_x]
            both_open = ((code & (1 << dx)) != 0) & ((code & (1 << dy)) != 0)
            covered = ((code & (0x11 << dx)) != 0) & ((code & (0x11 << dy)) != 0)
            out[(sx, sy)] = covered & (diag | ~both_open)
    return out


def _masses(quarters: dict, h: float) -> np.ndarray:
    """Finite-volume cell area per node, h^2/4 per present quarter (see
    _quarter_presence); 0 off-domain, where no quarter is present."""
    total = sum(present.astype(np.int8) for present in quarters.values())
    return total / 4.0 * h ** 2


def _drop_massless(mask: np.ndarray) -> np.ndarray:
    """The mask less the nodes that would hold no quarter cell under
    Neumann walls, those with no active neighbor along one axis: on a
    closed disk, (+-r, 0) and (0, +-r) when they are lattice nodes; on an
    octopus also such nodes of its body arcs and corners of slanted arm
    tips.  One pass leaves no such node on any family's mask."""
    quarters = _quarter_presence(mask, wall_code(mask, NEUMANN))
    return mask & (_masses(quarters, 1.0) > 0)


# ---------------------------------------------------------------------------
# family rasterizers

def _lattice(width: float, height: float, resolution: int,
             origin: tuple[float, float]) -> tuple[float, np.ndarray, np.ndarray]:
    """Vertex lattice of spacing h = longest_side/resolution, floored so it
    never overshoots the bounding box (commensurate sides stay exact)."""
    h = max(width, height) / resolution
    nx = int(math.floor(width / h + 1e-9)) + 1
    ny = int(math.floor(height / h + 1e-9)) + 1
    x = origin[0] + np.arange(nx) * h
    y = origin[1] + np.arange(ny) * h
    return h, *np.meshgrid(x, y)  # X, Y shaped (ny, nx)


def _raster(closed, X, Y, h: float, bc: int) -> np.ndarray:
    """The active-node rule (see the module docstring) for the closed shape
    ``closed(X, Y)``: under Dirichlet walls all 9 probes of a node lie in
    it, under Neumann walls any one does and the node holds a quarter cell.
    The diagonal probes catch re-entrant corners.  The centre probe is
    taken at every node, the other 8 only on the band: nodes with an
    8-neighbor whose centre is classified differently, a node off the
    lattice counting as outside."""
    out = closed(X, Y)
    ny, nx = out.shape
    pad = np.pad(out, 1)
    band = np.zeros_like(out)
    for dy, dx in itertools.product(range(3), repeat=2):
        band |= pad[dy:dy + ny, dx:dx + nx] != out
    by, bx = np.nonzero(band)
    xb, yb, keep = X[by, bx], Y[by, bx], out[by, bx]
    delta = 1e-9 * h
    fold = np.logical_and if bc == DIRICHLET else np.logical_or
    for dx in (-delta, 0.0, delta):
        for dy in (-delta, 0.0, delta):
            if dx or dy:
                fold(keep, closed(xb + dx, yb + dy), out=keep)
    out[by, bx] = keep
    return out if bc == DIRICHLET else _drop_massless(out)


def _one_of(value, names) -> bool:
    """Whether value is a string among ``names``; False for any other type,
    hashable or not."""
    return isinstance(value, str) and value in names


def _number(name: str, value, integer: bool = False, error=ValueError,
            least=None, most=math.inf):
    """value as a float, or an int where ``integer``: finite, in [least,
    most], or in (0, most] where least is None.  The package's one numeric
    check; it also refuses a bool, a string, a float for an integer and a
    real beyond the floats, raising ``error`` (ValueError or DomainError)."""
    if type(value) is not (int if integer else float):  # exact: no ABCs
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integer else numbers.Real):
            raise error(f"{name} must be an integer, got {value!r}: it must "
                        f"be {_wanted(True, least, most)}" if integer else
                        f"{name} must be a real number, got {value!r}")
        try:
            value = int(value) if integer else float(value)
        except OverflowError:  # reported as the infinity it rounds to
            value = math.inf if value > 0 else -math.inf
    if ((0 < value if least is None else least <= value)
            and value <= most and value < math.inf):  # also refuses NaN
        return value
    raise error(f"{name} must be {_wanted(integer, least, most)}, "
                f"got {value}")


def _wanted(integer: bool, least, most) -> str:
    """What _number asks of a value, in words."""
    if least is None and most == math.inf:
        return "a positive integer" if integer else "positive and finite"
    return (f"{'an integer' if integer else 'a finite number'} in "
            f"{'(0' if least is None else f'[{least}'}, {most}"
            f"{']' if most < math.inf else ')'}")


def _params(spec: DomainSpec, defaults: dict, own=(), parts=()) -> list:
    """The values of spec.params for the keys of ``defaults``, in their
    order: a given value read by _number, as an integer where its default
    is an int; the default where the key is absent.  ``own`` names the keys
    the caller reads itself and ``parts`` those bc_overrides may name.
    Raises DomainError for any other key of either and for an override
    label other than dirichlet or neumann."""
    unknown = set(spec.params) - set(defaults) - set(own)
    if unknown:
        raise DomainError(f"{spec.family}: unknown params "
                          f"{sorted(unknown, key=str)}; have "
                          f"{[*defaults, *own]}")
    unknown = set(spec.bc_overrides) - set(parts)
    if unknown:
        raise DomainError(f"{spec.family}: bc_overrides name unknown parts "
                          f"{sorted(unknown, key=str)}; have {list(parts)} "
                          "(only the rectangle's sides take overrides)")
    for part, bc in spec.bc_overrides.items():
        if not _one_of(bc, _BC_NAMES):
            raise DomainError(f"bc override {part}={bc!r} not recognized")
    return [_number(f"{spec.family}: {key}", spec.params[key],
                    integer=isinstance(default, int), error=DomainError)
            if key in spec.params else default
            for key, default in defaults.items()]


_SIDES = ("left", "right", "bottom", "top")


def _read_rectangle(spec: DomainSpec):
    """(width, height, labels of the sides in _SIDES order)."""
    w, ht = _params(spec, {"width": 1.0, "height": 1.0}, parts=_SIDES)
    sides = tuple(_BC_NAMES[spec.bc_overrides.get(s, spec.bc_default)]
                  for s in _SIDES)
    return w, ht, sides


def _build_rectangle(spec: DomainSpec, w, ht, sides):
    h, X, Y = _lattice(w, ht, spec.resolution, (0.0, 0.0))
    on_l, on_r = np.isclose(X, 0.0), np.isclose(X, w)
    on_b, on_t = np.isclose(Y, 0.0), np.isclose(Y, ht)
    mask = np.ones(X.shape, dtype=bool)
    for on, label in zip((on_l, on_r, on_b, on_t), sides):
        if label == DIRICHLET:
            mask &= ~on
    # a boundary wall in the +x/-x direction always realizes the right/left
    # ideal side (a missing x-neighbor is missing because of that side),
    # and likewise for y, so each direction (+x, -x, +y, -y) has one label
    labels = np.array(sides, dtype=np.int8)[[1, 0, 3, 2]].reshape(4, 1, 1)
    return h, (0.0, 0.0), mask, labels, {}


def _read_disk(spec: DomainSpec):
    """(radius,)."""
    return _params(spec, {"radius": 1.0})


def _build_disk(spec: DomainSpec, r):
    h, X, Y = _lattice(2 * r, 2 * r, spec.resolution, (-r, -r))
    bc = _BC_NAMES[spec.bc_default]
    mask = _raster(lambda X, Y: X * X + Y * Y <= r * r, X, Y, h, bc)
    return h, (-r, -r), mask, bc, {}


def _read_annulus(spec: DomainSpec):
    """(outer_radius, inner_radius)."""
    ro, ri = _params(spec, {"outer_radius": 1.0, "inner_radius": 0.5})
    if ri >= ro:
        raise DomainError("annulus needs inner_radius < outer_radius")
    return ro, ri


def _build_annulus(spec: DomainSpec, ro, ri):
    def closed(X, Y):
        r2 = X * X + Y * Y
        return (r2 >= ri * ri) & (r2 <= ro * ro)

    h, X, Y = _lattice(2 * ro, 2 * ro, spec.resolution, (-ro, -ro))
    bc = _BC_NAMES[spec.bc_default]
    return h, (-ro, -ro), _raster(closed, X, Y, h, bc), bc, {}


def _read_dumbbell(spec: DomainSpec):
    """(lobe_width, lobe_height, neck_width, neck_length)."""
    lw, lh, nw, nl = _params(spec, {"lobe_width": 1.0, "lobe_height": 1.0,
                                    "neck_width": 0.1, "neck_length": 0.5})
    if nw >= lh:
        raise DomainError("dumbbell needs neck_width < lobe_height")
    return lw, lh, nw, nl


def _build_dumbbell(spec: DomainSpec, lw, lh, nw, nl):
    width = 2 * lw + nl
    y_lo, y_hi = (lh - nw) / 2.0, (lh + nw) / 2.0
    x_l, x_r = lw, lw + nl

    def closed(X, Y):
        in_y = (Y >= 0) & (Y <= lh)
        left = (X >= 0) & (X <= x_l) & in_y
        right = (X >= x_r) & (X <= width) & in_y
        neck = (X >= x_l) & (X <= x_r) & (Y >= y_lo) & (Y <= y_hi)
        return left | right | neck

    h, X, Y = _lattice(width, lh, spec.resolution, (0.0, 0.0))
    if nw / h < 4:
        raise DomainError(
            f"dumbbell neck resolves to {nw / h:.1f} < 4 nodes across; "
            "raise resolution or widen the neck")
    bc = _BC_NAMES[spec.bc_default]
    mask = _raster(closed, X, Y, h, bc)
    regions = {
        "left_lobe": mask & (X <= x_l),
        "neck": mask & (X > x_l) & (X < x_r),
        "right_lobe": mask & (X >= x_r),
    }
    return h, (0.0, 0.0), mask, bc, regions


def _read_octopus(spec: DomainSpec):
    """(body_radius, tentacle_width, tentacle_length, tentacle_count)."""
    rb, tw, tl, tc = _params(spec, {"body_radius": 1.0, "tentacle_width": 0.2,
                                    "tentacle_length": 1.0,
                                    "tentacle_count": 4})
    if tw >= rb:
        raise DomainError("octopus needs tentacle_width < body_radius")
    return rb, tw, tl, tc


def _build_octopus(spec: DomainSpec, rb, tw, tl, tc):
    angles = [2.0 * math.pi * k / tc for k in range(tc)]
    reach = rb + tl

    def tentacle_closed(X, Y, th):
        xi = X * math.cos(th) + Y * math.sin(th)
        psi = -X * math.sin(th) + Y * math.cos(th)
        return (xi >= 0) & (xi <= reach) & (np.abs(psi) <= tw / 2.0)

    def closed(X, Y):
        out = X * X + Y * Y <= rb * rb
        for th in angles:
            out |= tentacle_closed(X, Y, th)
        return out

    xs, ys = [-rb, rb], [-rb, rb]
    for th, side in itertools.product(angles, (0.5, -0.5)):  # tip corners
        xs.append(math.cos(th) * reach - math.sin(th) * side * tw)
        ys.append(math.sin(th) * reach + math.cos(th) * side * tw)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    h, X, Y = _lattice(x1 - x0, y1 - y0, spec.resolution, (x0, y0))
    if tw / h < 4:
        raise DomainError(
            f"octopus tentacle resolves to {tw / h:.1f} < 4 nodes across; "
            "raise resolution or widen the tentacle")
    bc = _BC_NAMES[spec.bc_default]
    mask = _raster(closed, X, Y, h, bc)
    body = X * X + Y * Y <= rb * rb
    regions = {"body": mask & body}
    for k, th in enumerate(angles):
        regions[f"tentacle_{k}"] = mask & tentacle_closed(X, Y, th) & ~body
    return h, (x0, y0), mask, bc, regions


def _read_l_shape(spec: DomainSpec):
    """(width, height, notch_width, notch_height)."""
    w, ht, nw, nh = _params(spec, {"width": 1.0, "height": 1.0,
                                   "notch_width": None, "notch_height": None})
    nw = w / 2.0 if nw is None else nw
    nh = ht / 2.0 if nh is None else nh
    if nw >= w or nh >= ht:
        raise DomainError("l_shape notch must be smaller than the rectangle")
    return w, ht, nw, nh


def _build_l_shape(spec: DomainSpec, w, ht, nw, nh):
    def closed(X, Y):
        rect = (X >= 0) & (X <= w) & (Y >= 0) & (Y <= ht)
        notch = (X > w - nw) & (Y > ht - nh)
        return rect & ~notch

    h, X, Y = _lattice(w, ht, spec.resolution, (0.0, 0.0))
    bc = _BC_NAMES[spec.bc_default]
    return h, (0.0, 0.0), _raster(closed, X, Y, h, bc), bc, {}


def _read_custom(spec: DomainSpec):
    """(rows, cell_size)."""
    cell, = _params(spec, {"cell_size": 1.0 / 64}, own=("rows",))
    rows = spec.params.get("rows")
    if not (isinstance(rows, tuple) and rows
            and all(isinstance(r, str) and r and len(r) == len(rows[0])
                    for r in rows)):
        raise DomainError("custom_mask rows must be a nonempty list of "
                          f"nonempty, equal-length strings, got {rows!r}")
    return rows, cell


def _build_custom(spec: DomainSpec, rows, cell):
    grid = [[ch in "1#xX" for ch in r] for r in reversed(rows)]
    mask = np.array(grid, dtype=bool)
    bc = _BC_NAMES[spec.bc_default]
    return cell, (0.0, 0.0), mask, bc, {}


# family name -> (reader, builder), as the module docstring describes
_FAMILIES = {
    "rectangle": (_read_rectangle, _build_rectangle),
    "disk": (_read_disk, _build_disk),
    "annulus": (_read_annulus, _build_annulus),
    "dumbbell": (_read_dumbbell, _build_dumbbell),
    "octopus": (_read_octopus, _build_octopus),
    "l_shape": (_read_l_shape, _build_l_shape),
    "custom_mask": (_read_custom, _build_custom),
}


def build_domain(spec: DomainSpec) -> GridDomain:
    """Rasterize a DomainSpec; deterministic (equal specs, identical bits).
    Runs no reader: the builder gets the values parsed when the spec was
    made.  Raises DomainError for disconnected masks or under-resolved
    features."""
    build = _FAMILIES[spec.family][1]  # -> h, origin, mask, labels, regions
    return GridDomain(spec.name or spec.family, *build(spec, *spec._key[1]))


# ---------------------------------------------------------------------------
# level sets

def _point_segment_dist(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distances from points (..., 2) to segments (x1, y1, x2, y2) (..., 4),
    elementwise over the broadcast leading axes."""
    a = segs[..., 0:2]
    ab = segs[..., 2:4] - a
    denom = np.einsum("...k,...k->...", ab, ab)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(np.einsum("...k,...k->...", pts - a, ab) / denom, 0.0, 1.0)
    d = pts - (a + t[..., None] * ab)
    return np.sqrt(np.einsum("...k,...k->...", d, d))


@dataclass(frozen=True)
class LevelSetGeometry:
    """Marching-squares geometry of one normalized level eta in (0, 1]."""

    level_eta: float
    polylines: list  # list of (m_i, 2) float arrays, physical coordinates
    superlevel_mask: np.ndarray  # |field|/max >= eta, active nodes only


# marching squares: per corner pattern, the pairs of cell edges its segments
# join.  Bit k of a pattern is set when corner k is at or above eta, corners
# 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1) in (x, y) cell units; edge e runs from
# corner e to corner e+1 (0=bottom 1=right 2=top 3=left).  -1 pads a row to
# two segments.  Rows 16 and 17 are saddles 5 and 10 whose average corner
# value is at or above eta.
_EDGE_PAIRS = np.array([
    [[-1, -1], [-1, -1]], [[3, 0], [-1, -1]], [[0, 1], [-1, -1]],
    [[3, 1], [-1, -1]], [[1, 2], [-1, -1]], [[3, 0], [1, 2]],
    [[0, 2], [-1, -1]], [[2, 3], [-1, -1]], [[2, 3], [-1, -1]],
    [[0, 2], [-1, -1]], [[0, 1], [2, 3]], [[1, 2], [-1, -1]],
    [[3, 1], [-1, -1]], [[0, 1], [-1, -1]], [[3, 0], [-1, -1]],
    [[-1, -1], [-1, -1]],
    [[3, 2], [1, 0]], [[0, 3], [2, 1]],
])
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_BLOCK = 512  # query points per chunk of set_distance's candidate pairs


def extract_level_set(dom: GridDomain, field: np.ndarray, eta: float) -> LevelSetGeometry:
    """Level-set geometry of |field| / max|field| at level eta in (0, 1].

    Marching squares with linear interpolation on cells whose four corners
    are all active; saddle cells are split by comparing the cell's average
    corner value against eta.  Vertices come out in physical coordinates.
    """
    eta = _number("eta", eta, most=1)
    field = np.asarray(field, dtype=float)
    if field.shape != dom.mask.shape:
        raise ValueError("field shape must match the domain lattice")
    if not np.isfinite(field[dom.mask]).all():
        raise ValueError("field has non-finite values on the domain")
    peak = float(np.abs(field[dom.mask]).max())
    if peak == 0.0:
        raise ValueError("field is identically zero on the domain")
    g = np.where(dom.mask, np.abs(field) / peak, 0.0)

    superlevel = dom.mask & (g >= eta)
    segments = _march_cells(dom, g, eta)
    polylines = _chain_segments(segments, tol=1e-9 * dom.h)
    if not polylines:
        # A level that only touches isolated nodes (the peak at eta = 1)
        # produces no cell crossings; report those nodes as degenerate
        # one-point polylines.  A plateau hitting many nodes (a constant
        # field) is not point-like and stays empty.
        iy, ix = np.nonzero(dom.mask & (g == eta))
        if 0 < iy.size <= 64:
            xs, ys = dom.node_xy(iy, ix)
            polylines = [np.array([[x, y]]) for x, y in zip(xs, ys)]
    return LevelSetGeometry(level_eta=eta, polylines=polylines,
                            superlevel_mask=superlevel)


def _march_cells(dom: GridDomain, g: np.ndarray, eta: float) -> np.ndarray:
    """(m, 4) segments (x1, y1, x2, y2) crossing level eta, cells in
    row-major order and a cell's segments in _EDGE_PAIRS order."""
    act = dom.mask
    cell_ok = act[:-1, :-1] & act[:-1, 1:] & act[1:, 1:] & act[1:, :-1]
    up = (g >= eta).astype(np.uint8)
    code = (up[:-1, :-1] | up[:-1, 1:] << 1 | up[1:, 1:] << 2
            | up[1:, :-1] << 3)
    iy, ix = np.nonzero(cell_ok & (code != 0) & (code != 15))
    vals = np.column_stack([g[iy, ix], g[iy, ix + 1], g[iy + 1, ix + 1],
                            g[iy + 1, ix]])  # corner values, in bit order
    case = code[iy, ix]
    high = ((case == 5) | (case == 10)) & (
        (vals[:, 0] + vals[:, 1] + vals[:, 2] + vals[:, 3]) / 4.0 >= eta)
    case = np.where(high, 16 + (case == 10), case)
    pairs = _EDGE_PAIRS[case].reshape(-1, 2)  # two slots per cell
    cell = np.repeat(np.arange(case.size), 2)
    keep = pairs[:, 0] >= 0
    pairs, cell = pairs[keep], cell[keep]

    def edge_point(e):
        va = vals[cell, e]
        vb = vals[cell, (e + 1) % 4]
        t = np.clip((eta - va) / (vb - va), 0.0, 1.0)[:, None]
        a, b = _CORNERS[e], _CORNERS[(e + 1) % 4]
        return a + t * (b - a)

    p1, p2 = edge_point(pairs[:, 0]), edge_point(pairs[:, 1])
    # a corner value exactly equal to eta collapses both crossings onto that
    # corner; such zero-length segments carry no geometry and would litter
    # the output as degenerate fragments
    keep = (np.abs(p1 - p2) >= 1e-9).any(axis=1)
    origin = np.array(dom.origin)
    at = np.column_stack([ix, iy])[cell[keep]]
    return np.hstack([origin + (at + p1[keep]) * dom.h,
                      origin + (at + p2[keep]) * dom.h])


def _chain_segments(segs: np.ndarray, tol: float) -> list[np.ndarray]:
    """Join (m, 4) marching-squares segments into polylines by shared
    endpoints."""
    segs = segs.tolist()
    if not segs:
        return []
    key = lambda x, y: (round(x / tol / 16), round(y / tol / 16))
    links: dict[tuple, list[int]] = {}
    for i, (x1, y1, x2, y2) in enumerate(segs):
        links.setdefault(key(x1, y1), []).append(i)
        links.setdefault(key(x2, y2), []).append(i)
    used = [False] * len(segs)
    chains = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        x1, y1, x2, y2 = segs[start]
        chain = [(x1, y1), (x2, y2)]
        # grow forward from the tail, then backward from the head
        for flip in (False, True):
            if flip:
                chain.reverse()
            while True:
                cx, cy = chain[-1]
                nxt = None
                for j in links.get(key(cx, cy), ()):  # at most a few
                    if not used[j]:
                        nxt = j
                        break
                if nxt is None:
                    break
                used[nxt] = True
                a1, b1, a2, b2 = segs[nxt]
                if abs(a1 - cx) <= 16 * tol and abs(b1 - cy) <= 16 * tol:
                    chain.append((a2, b2))
                else:
                    chain.append((a1, b1))
        chains.append(np.array(chain))
    return chains


# ---------------------------------------------------------------------------
# distances between point sets / polylines

def set_distance(a, b) -> float:
    """Min Euclidean distance between two geometric sets.

    Accepts LevelSetGeometry (its polylines), a list of polylines ((m, 2)
    arrays), or a (k, 2) point array; anything else raises TypeError, and
    a coordinate that is not finite raises ValueError.
    Polylines measure segment-to-segment distance, not vertex samples.
    Returns inf when either side is empty.

    Two segments that do not cross are closest at an endpoint of one of
    them, so the distance is the least vertex-to-segment distance either
    way round, or 0 where segments cross.  A loose point or a one-vertex
    polyline is a zero-length segment.

    Only candidate pairs are measured, found with k-d trees over segment
    endpoints; the result is exact all the same.  With d_vv the least
    vertex-to-vertex distance and L the longest segment on either side,
    the answer is at most d_vv, and a segment within d_vv of a vertex has
    an endpoint within d_vv + L/2 of it.  Two crossing segments have
    endpoints within L of each other, so d_vv <= L, and only then are
    crossings looked for.
    """
    verts_a, segs_a = _as_segments(a)
    verts_b, segs_b = _as_segments(b)
    if not (len(segs_a) and len(segs_b)):
        return math.inf
    # imported here: at module level it adds ~55 ms to `import eigenwalk`
    from scipy.spatial import cKDTree
    ends_a, ends_b = segs_a.reshape(-1, 2), segs_b.reshape(-1, 2)
    tree_a, tree_b = cKDTree(ends_a), cKDTree(ends_b)
    near_a, near_b = tree_b.query(verts_a)[0], tree_a.query(verts_b)[0]
    d_vv = float(near_a.min())
    longest = max(float(np.hypot(s[:, 2] - s[:, 0], s[:, 3] - s[:, 1]).max())
                  for s in (segs_a, segs_b))
    slack = 1.0 + 1e-12  # keeps pairs that tie with the bound to rounding
    r = (d_vv + 0.5 * longest) * slack
    best = math.inf
    for verts, near, segs, tree in ((verts_a, near_a, segs_b, tree_b),
                                    (verts_b, near_b, segs_a, tree_a)):
        verts = verts[near <= r]  # the rest have no endpoint within r
        for i, j in _near_pairs(tree, verts, r):
            best = min(best, float(_point_segment_dist(
                verts[i], segs[j // 2]).min(initial=math.inf)))
    if best > 0.0 and d_vv <= longest and any(
            _crosses(segs_a[i // 2], segs_b[j // 2]).any()
            for i, j in _near_pairs(tree_b, ends_a, longest * slack)):
        return 0.0
    return best


def _as_segments(obj) -> tuple[np.ndarray, np.ndarray]:
    """(vertices (n, 2), segments (m, 4)) of a set_distance input."""
    if isinstance(obj, LevelSetGeometry):
        polys = obj.polylines
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[1] == 2:
        polys = obj[:, None, :]  # each point a one-vertex polyline
    elif isinstance(obj, (list, tuple)):
        polys = obj
    else:
        raise TypeError(f"cannot interpret {type(obj).__name__} as geometry")
    verts, segs = [np.empty((0, 2))], [np.empty((0, 4))]
    for poly in polys:
        poly = np.asarray(poly, dtype=float)
        if poly.ndim != 2 or poly.shape[1] != 2:
            raise TypeError(f"a polyline must be an (m, 2) array, got shape "
                            f"{poly.shape}")
        verts.append(poly)
        ends = poly if len(poly) != 1 else poly[[0, 0]]
        segs.append(np.hstack([ends[:-1], ends[1:]]))
    verts = np.vstack(verts)
    if not np.isfinite(verts).all():
        raise ValueError("set_distance needs finite coordinates")
    return verts, np.vstack(segs)


def _near_pairs(tree, pts: np.ndarray, r: float):
    """Index arrays (i, j) of the pairs with |pts[i] - tree.data[j]| <= r,
    for _BLOCK rows of pts at a time."""
    from scipy.spatial import cKDTree
    for i0 in range(0, len(pts), _BLOCK):
        pairs = cKDTree(pts[i0:i0 + _BLOCK]).sparse_distance_matrix(
            tree, r, output_type="ndarray")
        yield pairs["i"] + i0, pairs["j"]


def _crosses(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Whether segments sa (..., 4) and sb (..., 4) properly cross,
    elementwise."""
    a1, a2 = sa[..., 0:2], sa[..., 2:4]
    b1, b2 = sb[..., 0:2], sb[..., 2:4]

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    o1 = orient(a1, a2, b1)
    o2 = orient(a1, a2, b2)
    o3 = orient(b1, b2, a1)
    o4 = orient(b1, b2, a2)
    return (o1 * o2 < 0) & (o3 * o4 < 0)
