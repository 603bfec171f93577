"""The contract of geomint's immutable value types (geomint.value.Value).

Each value type is built by position, with its defaults, and by keyword,
with every field spelled out.  The reprs are pinned as the types printed them
when they were frozen dataclasses.
"""

import copy
import pickle

import pytest

from geomint import bench, geometry, integrators, mechanics, odecore, so3

_I3 = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
_ID = so3.Rotation.identity()
_ID_REPR = "Rotation(m=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))"
_HARMONIC = {"k": 1.0, "m": 1.0, "q0": 1.0, "v0": 0.0}

# class, positional arguments (defaults left out), every field by keyword,
# a keyword that makes a different value, and the repr
_CASES = [
    (
        bench.TrajectoryRecord,
        (3, 0.5, (1.0, 2.0), ("step", "t", "q", "v")),
        {"step": 3, "t": 0.5, "values": (1.0, 2.0), "columns": ("step", "t", "q", "v")},
        {"columns": ("step", "t", "x", "v")},
        "TrajectoryRecord(step=3, t=0.5, values=(1.0, 2.0))",
    ),
    (
        bench.ScenarioConfig,
        ("harmonic", "stormer_verlet", 0.1, 10),
        {
            "scenario": "harmonic", "integrator": "stormer_verlet", "dt": 0.1, "steps": 10,
            "theta": 0.5, "params": {},
        },
        {"params": {"k": 2.0}},
        "ScenarioConfig(scenario='harmonic', integrator='stormer_verlet', dt=0.1, steps=10,"
        f" theta=0.5, params={_HARMONIC!r})",
    ),
    (
        bench.DriftSummary,
        (1.0, 2.0, 0.5, -0.25),
        {"initial": 1.0, "final": 2.0, "max_abs_dev": 0.5, "linear_slope": -0.25},
        {"linear_slope": 0.25},
        "DriftSummary(initial=1.0, final=2.0, max_abs_dev=0.5, linear_slope=-0.25)",
    ),
    (
        geometry.TrivializedRetraction,
        ("cayley",),
        {"tag": "cayley"},
        {"tag": "exp"},
        "TrivializedRetraction(tag='cayley')",
    ),
    (
        integrators.RigidBodyState,
        (_ID, (1, 2, 3)),
        {"R": _ID, "Pi": (1.0, 2.0, 3.0)},
        {"Pi": (1.0, 2.0, -3.0)},
        f"RigidBodyState(R={_ID_REPR}, Pi=(1.0, 2.0, 3.0))",
    ),
    (
        integrators.HeavyTopState,
        (_ID, (0, 0, 1), (1, 2, 3), (0, 0, 1)),
        {"R": _ID, "x": (0.0, 0.0, 1.0), "Pi": (1.0, 2.0, 3.0), "Gamma": (0.0, 0.0, 1.0)},
        {"Gamma": (0.0, 1.0, 0.0)},
        f"HeavyTopState(R={_ID_REPR}, x=(0.0, 0.0, 1.0), Pi=(1.0, 2.0, 3.0),"
        " Gamma=(0.0, 0.0, 1.0))",
    ),
    (
        integrators.QuadrotorState,
        (_ID, (1, 2, 3), (0, 0, 0), (0, 0, 0)),
        {"R": _ID, "Pi": (1.0, 2.0, 3.0), "q": (0.0, 0.0, 0.0), "p": (0.0, 0.0, 0.0)},
        {"p": (0.0, 0.0, 1.0)},
        f"QuadrotorState(R={_ID_REPR}, Pi=(1.0, 2.0, 3.0), q=(0.0, 0.0, 0.0),"
        " p=(0.0, 0.0, 0.0))",
    ),
    (
        integrators.QuadrotorInput,
        (),
        {"M": (0.0, 0.0, 0.0), "F": 0.0},
        {"F": 9.81},
        "QuadrotorInput(M=(0.0, 0.0, 0.0), F=0.0)",
    ),
    (
        mechanics.HarmonicOscillatorParams,
        (),
        {"k": 1.0, "m": 1.0},
        {"k": 2.0},
        "HarmonicOscillatorParams(k=1.0, m=1.0)",
    ),
    (mechanics.KeplerParams, (), {"mu": 1.0}, {"mu": 0.5}, "KeplerParams(mu=1.0)"),
    (
        mechanics.PendulumParams,
        (),
        {"ml2": 1.0, "mgl": 1.0},
        {"mgl": 2.0},
        "PendulumParams(ml2=1.0, mgl=1.0)",
    ),
    (
        mechanics.RigidBodyParams,
        (_I3,),
        {"inertia": _I3},
        {"inertia": ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))},
        f"RigidBodyParams(inertia={_I3!r})",
    ),
    (
        mechanics.HeavyTopParams,
        (_I3,),
        {"inertia": _I3, "m": 1.0, "g": 9.81, "chi": (0.0, 0.0, 1.0)},
        {"chi": (0.0, 0.0, 0.5)},
        f"HeavyTopParams(inertia={_I3!r}, m=1.0, g=9.81, chi=(0.0, 0.0, 1.0))",
    ),
    (
        mechanics.QuadrotorParams,
        (_I3,),
        {"inertia": _I3, "m": 1.0, "g": 9.81},
        {"g": 0.0},
        f"QuadrotorParams(inertia={_I3!r}, m=1.0, g=9.81)",
    ),
    (
        odecore.ButcherTableau,
        ([[0.0]], [1.0]),
        {"a": [[0.0]], "b": [1.0]},
        {"a": [[1.0]]},
        "ButcherTableau(a=array([[0.]]), b=array([1.]))",
    ),
    (
        odecore.PartitionedTableau,
        ([[0.5]], [1.0], [[0.5]], [1.0]),
        {"a": [[0.5]], "b": [1.0], "a_hat": [[0.5]], "b_hat": [1.0]},
        {"a_hat": [[0.0]]},
        "PartitionedTableau(a=array([[0.5]]), b=array([1.]), a_hat=array([[0.5]]),"
        " b_hat=array([1.]))",
    ),
    (so3.Rotation, (so3.IDENTITY3,), {"m": so3.IDENTITY3}, {"m": so3.exp_so3((0.0, 0.0, 0.1)).m},
     _ID_REPR),
]

# a dict or an array among the fields makes the value unhashable, as it did
_UNHASHABLE = {
    bench.ScenarioConfig,
    odecore.ButcherTableau,
    odecore.PartitionedTableau,
}


def _derived(value):
    """repr of each slot that caches something derived from the fields."""
    return {
        name: repr(getattr(value, name))
        for name in type(value).__slots__
        if name not in type(value)._fields
    }


@pytest.mark.parametrize(
    ("cls", "args", "kwargs", "change", "text"), _CASES, ids=[case[0].__name__ for case in _CASES]
)
def test_value_type_contract(cls, args, kwargs, change, text):
    by_position = cls(*args)
    by_keyword = cls(**kwargs)
    other = cls(**{**kwargs, **change})
    assert set(kwargs) == set(cls._fields)

    # frozen: no field, and no new attribute, can be set or deleted
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert repr(by_position) == text

    # field-wise equality and hashing
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != other and not by_position == other
    assert by_position != args and by_position.__eq__(args) is NotImplemented
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword, other}) == 2

    # copies and pickles call the constructor again, so derived slots come back
    for clone in (copy.copy(by_position), pickle.loads(pickle.dumps(by_position))):
        assert type(clone) is cls and clone is not by_position
        assert clone == by_position and repr(clone) == text
        assert _derived(clone) == _derived(by_position)


# each scalar model parameter, with the other arguments its type needs
_SCALAR_FIELDS = [
    (mechanics.HarmonicOscillatorParams, (), "k"),
    (mechanics.HarmonicOscillatorParams, (), "m"),
    (mechanics.KeplerParams, (), "mu"),
    (mechanics.PendulumParams, (), "ml2"),
    (mechanics.PendulumParams, (), "mgl"),
    (mechanics.HeavyTopParams, (_I3,), "m"),
    (mechanics.HeavyTopParams, (_I3,), "g"),
    (mechanics.QuadrotorParams, (_I3,), "m"),
    (mechanics.QuadrotorParams, (_I3,), "g"),
    (integrators.QuadrotorInput, (), "F"),
]


@pytest.mark.parametrize(
    ("cls", "args", "field"),
    _SCALAR_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, _, field in _SCALAR_FIELDS],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, False])
def test_scalar_parameters_reject_non_finite_and_bool(cls, args, field, bad):
    # a NaN fails no comparison such as k <= 0.0, so only the finiteness check stops it
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {bad!r}$"):
        cls(*args, **{field: bad})
