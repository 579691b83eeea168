import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gawsim.errors import LayoutError
from gawsim.model import (
    CanonicalConfig,
    Configuration,
    ConnectionPoint,
    GiantAtomSpec,
    build_canonical,
    build_custom,
    layout_from_json,
    layout_to_json,
)


def test_braided_canonical_points():
    layout = build_canonical(CanonicalConfig("braided", gamma=1.0, theta=math.pi))
    phases = [p.phase for p in layout.all_points]
    assert phases == pytest.approx([math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2, 7 * math.pi / 2])
    assert [p.atom_id for p in layout.all_points] == [0, 1, 0, 1]
    assert all(p.gamma == 1.0 for p in layout.all_points)


def test_nested_canonical_points():
    layout = build_canonical(CanonicalConfig(Configuration.NESTED, gamma=1.0, theta=math.pi / 4))
    phases = [p.phase for p in layout.all_points]
    assert phases == pytest.approx([math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8])
    assert [p.atom_id for p in layout.all_points] == [0, 1, 1, 0]


def test_separate_ordering():
    layout = build_canonical(CanonicalConfig("separate", gamma=2.0, theta=1.0))
    assert [p.atom_id for p in layout.all_points] == [0, 0, 1, 1]


def test_theta_zero_rejected():
    with pytest.raises(LayoutError):
        build_canonical(CanonicalConfig("separate", gamma=2.0, theta=0.0))


def test_invalid_canonical_parameters():
    with pytest.raises(LayoutError):
        CanonicalConfig("braided", gamma=0.0, theta=1.0)
    with pytest.raises(LayoutError):
        CanonicalConfig("braided", gamma=1.0, theta=-0.1)


def test_single_point_atom():
    layout = build_custom([GiantAtomSpec(0, (ConnectionPoint(0, math.pi / 2, 1.0),))])
    assert layout.n_atoms == 1
    assert layout.all_points[0].phase == math.pi / 2


def test_custom_matches_canonical_on_grid():
    for theta in np.linspace(0.01, 2 * math.pi, 100):
        canonical = build_canonical(CanonicalConfig("braided", 1.0, float(theta)))
        atoms = [
            GiantAtomSpec(0, (ConnectionPoint(0, theta / 2, 1.0), ConnectionPoint(0, 5 * theta / 2, 1.0))),
            GiantAtomSpec(1, (ConnectionPoint(1, 3 * theta / 2, 1.0), ConnectionPoint(1, 7 * theta / 2, 1.0))),
        ]
        custom = build_custom(atoms)
        assert canonical == custom


def test_duplicate_phase_rejected():
    atoms = [
        GiantAtomSpec(0, (ConnectionPoint(0, 1.0, 1.0),)),
        GiantAtomSpec(1, (ConnectionPoint(1, 1.0, 1.0),)),
    ]
    with pytest.raises(LayoutError):
        build_custom(atoms)


def test_negative_rate_rejected():
    with pytest.raises(LayoutError):
        ConnectionPoint(0, 1.0, -0.5)


def test_negative_phase_rejected():
    with pytest.raises(LayoutError):
        ConnectionPoint(0, -0.1, 1.0)


def test_empty_layout_rejected():
    with pytest.raises(LayoutError):
        build_custom([])


def test_atom_without_points_rejected():
    with pytest.raises(LayoutError):
        GiantAtomSpec(0, ())


def test_mismatched_point_ownership_rejected():
    with pytest.raises(LayoutError):
        GiantAtomSpec(0, (ConnectionPoint(1, 0.5, 1.0),))


def test_all_points_sorted_strictly():
    layout = build_canonical(CanonicalConfig("nested", 1.0, 0.3))
    phases = [p.phase for p in layout.all_points]
    assert all(b > a for a, b in zip(phases, phases[1:]))


def test_json_round_trip():
    layout = build_canonical(CanonicalConfig("braided", 1.5, 0.8))
    text = layout_to_json(layout)
    assert layout_from_json(text) == layout
    assert [sorted(atom) for atom in json.loads(text)["atoms"]] == [["id", "points"]] * 2


def test_json_schema_fields():
    text = '{"atoms": [{"id": 0, "points": [{"phi": 0.5, "gamma": 2.0}]}]}'
    layout = layout_from_json(text)
    assert layout.atoms[0].atom_id == 0
    assert layout.atoms[0].points[0] == ConnectionPoint(0, 0.5, 2.0)


def test_json_omega_optional():
    # layout files once carried a bare frequency "omega" per atom; like every
    # key outside the schema it is ignored, so such files load unchanged
    text = '{"atoms": [{"id": 0, %s"points": [{"phi": 0.5, "gamma": 1.0}]}]}'
    bare = layout_from_json(text % "")
    for omega in ("0.0", "1e8", '"abc"', "NaN"):
        assert layout_from_json(text % f'"omega": {omega}, ') == bare
    assert [f.name for f in fields(GiantAtomSpec)] == ["atom_id", "points"]


def test_json_malformed_rejected():
    with pytest.raises(LayoutError):
        layout_from_json("not json")
    with pytest.raises(LayoutError):
        layout_from_json('{"atoms": [{"id": 0}]}')
    # an integer literal past Python's digit limit fails in the parser
    with pytest.raises(LayoutError, match="^invalid layout JSON: Exceeds the limit"):
        layout_from_json('{"atoms": [{"id": 1%s}]}' % ("0" * 5000))


_NON_FINITE = ("NaN", "Infinity", "-Infinity")


def _layout_text(phi="0.5", gamma="1.0"):
    return (
        '{"atoms": [{"id": 0, "points": [{"phi": %s, "gamma": 1.0}]},'
        ' {"id": 1, "points": [{"phi": 1.5, "gamma": %s}]}]}' % (phi, gamma)
    )


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("field,name", [("phi", "phase"), ("gamma", "gamma")])
def test_json_non_finite_value_rejected(field, name, value):
    with pytest.raises(LayoutError, match=f"{name} must be finite"):
        layout_from_json(_layout_text(**{field: value}))


def test_non_finite_point_rejected_directly():
    with pytest.raises(LayoutError, match="phase must be finite"):
        ConnectionPoint(0, math.nan, 1.0)
    with pytest.raises(LayoutError, match="gamma must be finite"):
        ConnectionPoint(0, 0.5, math.inf)
