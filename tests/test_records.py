"""The package's records: tuples with their listed fields (so unpacking
works), immutable, hashable, with a Name(field=value) repr, and the two
validating records refuse bad input however it is passed; a wrong field
count raises TypeError, and copy and pickle give back an equal record."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from invarc.cfrac import CFraction
from invarc.derivation import full_report
from invarc.numeric import Ellipse, Inversion, NumericError, PrecisionConfig

# (factory, field names, bad field values with the message each gets); each
# call of the factory builds an equal instance
RECORDS = [
    pytest.param(
        lambda: CFraction(F(4), F(1), (F(1, 2), F(3, 4)), 2),
        ("leading", "head", "partials", "periodic_from"),
        (),
        id="CFraction",
    ),
    pytest.param(
        lambda: full_report(8),
        ("ivory", "h_series", "true_series", "approx_series", "difference", "cfrac_true"),
        (),
        id="DerivationReport",
    ),
    pytest.param(
        lambda: Ellipse(1.0, 0.5),
        ("a", "b"),
        (
            ((0.0, 0.0), "semimajor axis must be positive and finite, got 0.0"),
            ((float("inf"), 1.0), "semimajor axis must be positive and finite, got inf"),
            ((0.5, 1.0), "need a >= b >= 0, got a=0.5, b=1.0"),
            ((1.0, -0.5), "need a >= b >= 0, got a=1.0, b=-0.5"),
        ),
        id="Ellipse",
    ),
    pytest.param(
        lambda: Inversion(1.5, 0.5, 0.5, 0.0625),
        ("a", "b", "lam", "h"),
        (),
        id="Inversion",
    ),
    pytest.param(
        lambda: PrecisionConfig(),
        ("abs_tol",),
        (
            ((-1.0,), "abs_tol must be positive and finite, got -1.0"),
            ((float("nan"),), "abs_tol must be positive and finite, got nan"),
            ((1e-3,), "abs_tol must be at most 1e-08, got 0.001"),
        ),
        id="PrecisionConfig",
    ),
]


@pytest.mark.parametrize("make, fields, rejects", RECORDS)
def test_records_are_frozen_hashable_keep_their_repr_and_checks(make, fields, rejects):
    record, twin = make(), make()
    assert isinstance(record, tuple) and record._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    assert tuple(record) == values
    assert record == twin and hash(record) == hash(twin)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert not hasattr(record, "__dict__")  # a subclass keeps __slots__ = ()
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({body})"
    cls = type(record)
    for args, message in rejects:
        for call in (lambda: cls(*args), lambda: cls(**dict(zip(fields, args)))):
            with pytest.raises(NumericError) as excinfo:
                call()
            assert str(excinfo.value) == message


@pytest.mark.parametrize("make, fields, rejects", RECORDS)
def test_records_refuse_a_wrong_count_and_survive_copy_and_pickle(make, fields, rejects):
    record = make()
    cls = type(record)
    with pytest.raises(TypeError):
        cls(*record, record[-1])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
