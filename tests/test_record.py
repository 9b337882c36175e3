"""Tests for the Record base: every value type fills its fields one way and
refuses assignment afterwards."""

import pytest

from etaforms.basis import BasisElement
from etaforms.eta import EtaCombination, EtaQuotient
from etaforms.leveldata import (AuxData, E2Combination, LevelData, ValidationCheck,
                                ValidationReport, WeightForm)
from etaforms.series import QSeries, Record
from etaforms.verify import CheckReport, ValuationRow

PSI6 = EtaQuotient(6, {2: 8, 3: 4, 1: -4, 6: -8})

# constructor arguments of every Record subclass, one per field in order;
# LevelData's last field, its expansion memo, is not an argument
ARGS = {
    QSeries: (-1, (1, 0, 6), 3),
    BasisElement: (6, 0, 1, "M", QSeries(-1, (1,), 1), (0, 1)),
    EtaQuotient: (6, ((1, -4), (2, 8), (3, 4), (6, -8)), 1),
    EtaCombination: ((PSI6,),),
    E2Combination: (((1, 2),),),
    WeightForm: (2, 1, EtaCombination([PSI6])),
    AuxData: (2, 8, -1, 2, PSI6, PSI6),
    LevelData: (6, PSI6, 0, {}, (1,), {}),
    ValidationCheck: ("n0", True, ""),
    ValidationReport: (6, 20, []),
    CheckReport: ("duality", {}, True, "m <= 3", [], 20, {}),
    ValuationRow: (6, 2, 1, 1, 1, 1, 1, 2, 5, 0, 1, "pass"),
}
RECORDS = pytest.mark.parametrize("cls", ARGS, ids=lambda cls: cls.__name__)


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(ARGS)


@RECORDS
def test_fields_are_immutable(cls):
    record = cls(*ARGS[cls])
    for name in (*cls.__slots__, "unknown"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            delattr(record, name)
        assert getattr(record, name, None) is before


@RECORDS
def test_constructor_takes_each_field_once(cls):
    args = ARGS[cls]
    names = cls.__slots__
    by_name = dict(zip(names, args))
    fields = [getattr(cls(*args), name) for name in names]
    assert [getattr(cls(**by_name), name) for name in names] == fields
    head, *tail = names
    calls = {
        "missing": ((), {name: by_name[name] for name in tail if name in by_name}),
        "extra": (args + (None,) * (len(names) + 1 - len(args)), {}),
        "repeated": (args, {head: args[0]}),
        "unknown": (args, {"unknown": None}),
    }
    for positional, keywords in calls.values():
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*positional, **keywords)
