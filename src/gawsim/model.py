"""Domain model for giant atoms coupled to a mirror-terminated 1D waveguide.

The waveguide occupies the positive x semi-axis and is closed by a perfect
mirror at x = 0.  Every coupling site ("connection point") is described by
its distance from the mirror expressed directly as the phase phi = k0*x a
resonant photon picks up on the way, and by a local decay rate gamma in
units of a reference rate.  Storing phases instead of (k0, x) pairs removes
a unit-consistency hazard: all coefficient formulas depend only on phase
sums and differences.

Two-atom systems with two connection points each come in three canonical
orderings along the line (nearest the mirror first):

    braided   a, b, a, b
    separate  a, a, b, b
    nested    a, b, b, a

with points at phases theta/2, 3*theta/2, 5*theta/2, 7*theta/2 and a uniform
decay rate.  ``build_canonical`` constructs these; ``build_custom`` accepts
arbitrary validated layouts (per-point rates and spacings).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import LayoutError

#: Hard cap on the number of atoms in any layout.
MAX_ATOMS = 64

#: Cap for code paths that build dense operators on the full 2**M space.
MAX_ATOMS_DENSE = 6


class Configuration(str, Enum):
    """The three canonical orderings of two two-point giant atoms."""

    BRAIDED = "braided"
    SEPARATE = "separate"
    NESTED = "nested"


#: Atom of each of the four canonical points, nearest the mirror first.
ATOM_ORDER = {
    Configuration.BRAIDED: (0, 1, 0, 1),
    Configuration.SEPARATE: (0, 0, 1, 1),
    Configuration.NESTED: (0, 1, 1, 0),
}

#: (2i + 1) / 2 for the four canonical points; theta * 3.5 is (theta * 7) / 2
#: exactly, but overflows only where the phase itself does.
_HALF_ODD = np.array([0.5, 1.5, 2.5, 3.5])

#: Largest |theta| whose phases, up to 3.5 theta, are finite (the next
#: double up overflows).
_THETA_LIMIT = np.nextafter(np.finfo(float).max / 3.5, 0.0)


def canonical_phases(theta) -> np.ndarray:
    """Phases (2i + 1) * theta / 2 of the four canonical points, theta.shape + (4,);
    raises ``LayoutError`` naming theta when a phase would not be finite."""
    theta = np.asarray(theta, dtype=float)
    if not (abs(theta) <= _THETA_LIMIT).all():
        raise LayoutError(f"theta must keep the connection-point phases (2i + 1) theta / 2 finite, "
                          f"got theta up to {float(np.abs(theta).max()):g}")
    return theta[..., None] * _HALF_ODD


@dataclass(frozen=True)
class ConnectionPoint:
    """A single atom-waveguide coupling site.

    Attributes
    ----------
    atom_id : int
        Index of the owning atom.
    phase : float
        Distance from the mirror as a phase, phi = k0*x >= 0 (radians).
    gamma : float
        Local decay rate at this point, >= 0, in units of the reference rate.
    """

    atom_id: int
    phase: float
    gamma: float

    def __post_init__(self):
        for name, value in (("phase", self.phase), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise LayoutError(f"connection point {name} must be finite, got {value}")
        if self.phase < 0:
            raise LayoutError(f"connection point phase must be >= 0, got {self.phase}")
        if self.gamma < 0:
            raise LayoutError(f"connection point decay rate must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class GiantAtomSpec:
    """A two-level atom with one or more connection points."""

    atom_id: int
    points: tuple[ConnectionPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise LayoutError(f"atom {self.atom_id} has no connection points")
        for p in self.points:
            if p.atom_id != self.atom_id:
                raise LayoutError(
                    f"connection point with atom_id={p.atom_id} assigned to atom {self.atom_id}"
                )


@dataclass(frozen=True)
class WaveguideLayout:
    """A validated arrangement of giant atoms along the semi-infinite waveguide.

    Atoms are indexed 0..M-1 in the order given; all connection-point phases
    must be pairwise distinct (coincident points are rejected, see
    ``build_canonical`` for the theta = 0 limit).
    """

    atoms: tuple[GiantAtomSpec, ...]
    all_points: tuple[ConnectionPoint, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise LayoutError("layout needs at least one atom")
        if len(self.atoms) > MAX_ATOMS:
            raise LayoutError(f"layout has {len(self.atoms)} atoms, cap is {MAX_ATOMS}")
        for i, atom in enumerate(self.atoms):
            if atom.atom_id != i:
                raise LayoutError(
                    f"atoms must be indexed 0..M-1 in order; position {i} has id {atom.atom_id}"
                )
        pts = sorted((p for atom in self.atoms for p in atom.points), key=lambda p: p.phase)
        for a, b in zip(pts, pts[1:]):
            if b.phase <= a.phase:
                raise LayoutError(
                    f"coincident connection points at phase {a.phase} "
                    f"(atoms {a.atom_id} and {b.atom_id})"
                )
        object.__setattr__(self, "all_points", tuple(pts))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class CanonicalConfig:
    """One-parameter family for the three canonical two-atom setups.

    ``theta`` is the phase shift between adjacent connection points; the
    nearest point sits at theta/2 from the mirror.  ``gamma`` is the uniform
    per-point decay rate.
    """

    kind: Configuration
    gamma: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", Configuration(self.kind))
        if self.gamma <= 0:
            raise LayoutError(f"gamma must be > 0, got {self.gamma}")
        if self.theta < 0:
            raise LayoutError(f"theta must be >= 0, got {self.theta}")


def build_canonical(config: CanonicalConfig) -> WaveguideLayout:
    """Expand a canonical configuration into an explicit two-atom layout.

    Points sit at the ``canonical_phases`` theta/2, 3*theta/2, 5*theta/2,
    7*theta/2 with the atom ordering fixed by ``config.kind``.  theta = 0
    would collapse all four points onto the mirror and is rejected; the
    theta -> 0 physics is available through the closed-form coefficient
    functions, which remain well defined there.
    """
    points: dict[int, list[ConnectionPoint]] = {0: [], 1: []}
    for atom_id, phase in zip(ATOM_ORDER[config.kind], canonical_phases(config.theta).tolist()):
        points[atom_id].append(ConnectionPoint(atom_id, phase, config.gamma))
    atoms = tuple(GiantAtomSpec(j, tuple(points[j])) for j in (0, 1))
    return WaveguideLayout(atoms)


def build_custom(atoms) -> WaveguideLayout:
    """Validate and assemble an arbitrary layout from atom specs."""
    return WaveguideLayout(tuple(atoms))


def _json_number(obj: dict, key: str, where: str, kind=float):
    """obj[key] as ``kind`` once it is a JSON integer (int) or number (float),
    not a boolean; else ``LayoutError`` naming the field."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "integer" if kind is int else "number"
        raise LayoutError(f"layout JSON {where}.{key} must be a JSON {noun}, got {json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise LayoutError(f"layout JSON {where}.{key} is too large for a float") from None


def layout_from_json(text: str) -> WaveguideLayout:
    """Parse a layout from its JSON representation.

    Schema::

        {"atoms": [{"id": 0, "points": [{"phi": 0.5, "gamma": 1.0}, ...]}, ...]}

    Phases are in radians, rates in units of the reference rate.  Any other
    JSON type of a field raises ``LayoutError`` naming it; keys outside the
    schema are ignored.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise LayoutError(f"invalid layout JSON: {exc}") from exc
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise LayoutError('layout JSON must be an object with an "atoms" array')
    if not isinstance(doc["atoms"], list):
        raise LayoutError(f"layout JSON atoms must be an array, got {json.dumps(doc['atoms'])}")
    atoms = []
    for i, entry in enumerate(doc["atoms"]):
        where = f"atoms[{i}]"
        try:
            atom_id = _json_number(entry, "id", where, int)
            pts = tuple(
                ConnectionPoint(atom_id, _json_number(p, "phi", f"{where}.points[{n}]"),
                                _json_number(p, "gamma", f"{where}.points[{n}]"))
                for n, p in enumerate(entry["points"])
            )
        except (KeyError, TypeError) as exc:
            raise LayoutError(f"malformed atom entry in layout JSON: {entry!r}") from exc
        atoms.append(GiantAtomSpec(atom_id, pts))
    return build_custom(atoms)


def layout_to_json(layout: WaveguideLayout) -> str:
    """Serialize a layout to the JSON schema accepted by ``layout_from_json``."""
    doc = {
        "atoms": [
            {
                "id": atom.atom_id,
                "points": [{"phi": p.phase, "gamma": p.gamma} for p in atom.points],
            }
            for atom in layout.atoms
        ]
    }
    return json.dumps(doc)
