"""The package's six value records, and the one rule for their exact values.

Each record is built by position and by keyword from the same fields, and
checked for equality by field, hashing, its repr text, read-only fields,
and pickle and copy round trips. The repr texts are those the records
printed when they were frozen dataclasses, so logs and doctests that show
them read the same. Exact values are ints or Fractions only: a bool, float,
str or Decimal is refused with a TypeError naming its type and value.
"""

import copy
import pickle
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from hgcauchy.cauchy import CauchyTable
from hgcauchy.hessenberg import HessenbergSpec, determinant_sequence
from hgcauchy.higher import Route, WeightTable
from hgcauchy.relations import ChainIndex
from hgcauchy.report import VerificationReport
from hgcauchy.series import TruncatedSeries, cameron_inverse, cameron_transform

# record class, its fields in order, and the repr the frozen dataclass printed
RECORDS = [
    pytest.param(
        TruncatedSeries,
        {"coefficients": (1, F(1, 2))},
        "TruncatedSeries(coefficients=(Fraction(1, 1), Fraction(1, 2)))",
        id="TruncatedSeries",
    ),
    pytest.param(
        CauchyTable,
        {"N": 1, "r": 1, "n_max": 2, "values": (1, F(1, 2), F(-1, 6)), "method": "series"},
        "CauchyTable(N=1, r=1, n_max=2, values=(Fraction(1, 1), Fraction(1, 2), "
        "Fraction(-1, 6)), method='series')",
        id="CauchyTable",
    ),
    pytest.param(
        HessenbergSpec,
        {"super_entry": 1, "band": (F(1, 2), 3)},
        "HessenbergSpec(super_entry=Fraction(1, 1), band=(Fraction(1, 2), "
        "Fraction(3, 1)))",
        id="HessenbergSpec",
    ),
    pytest.param(
        WeightTable,
        {"N": 1, "r": 2, "e_max": 1, "values": (1, 1)},
        "WeightTable(N=1, r=2, e_max=1, values=(Fraction(1, 1), Fraction(1, 1)))",
        id="WeightTable",
    ),
    pytest.param(
        ChainIndex,
        {"indices": (3, 1, 0)},
        "ChainIndex(indices=(3, 1, 0))",
        id="ChainIndex",
    ),
    pytest.param(
        VerificationReport,
        {
            "identity": "core/x",
            "parameter_point": (1, 1, 3),
            "status": "fail",
            "detail": ("1/4", "5/4"),
        },
        "VerificationReport(identity='core/x', parameter_point=(1, 1, 3), "
        "status='fail', detail=('1/4', '5/4'))",
        id="VerificationReport",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_positional_and_keyword_construction(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_missing_or_extra_argument_is_a_type_error(cls, fields, text):
    first, *rest = fields
    with pytest.raises(TypeError, match=first):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError, match="extra"):
        cls(**fields, extra=None)


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_equal_records_hash_alike(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(fields.values())


def test_records_of_two_classes_never_compare_equal():
    table = CauchyTable(1, 2, 1, (1, 1), "recurrence")
    weights = WeightTable(1, 2, 1, (1, 1))
    assert table.values == weights.values
    assert table != weights and weights != table
    assert CauchyTable.__eq__(table, weights) is NotImplemented


def test_records_differ_when_one_field_differs():
    base = CauchyTable(1, 1, 1, (1, F(1, 2)), "series")
    assert base != CauchyTable(1, 1, 1, (1, F(1, 2)), "recurrence")
    report = VerificationReport("core/x", (1, 1, 3), "pass")
    assert report != VerificationReport("core/x", (1, 1, 4), "pass")


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text


def test_default_detail_is_none():
    report = VerificationReport("core/x", (1, 1, 3), "pass")
    assert report.detail is None
    assert repr(report) == (
        "VerificationReport(identity='core/x', parameter_point=(1, 1, 3), "
        "status='pass', detail=None)"
    )


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_pickle_and_copy_round_trips(cls, fields, text):
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls and restored == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record
        assert repr(clone) == text


def test_route_keeps_its_three_fields():
    assert Route._fields == ("compute", "cap", "any_order")
    route = Route(len, None, any_order=True)
    assert route == (len, None, True) and route.any_order


# one call per entry point that takes exact values, each given an inexact one
INEXACT = [
    pytest.param(lambda: TruncatedSeries((1.5,)), "float 1.5", id="series-float"),
    pytest.param(lambda: TruncatedSeries((1, "1/2")), "str '1/2'", id="series-str"),
    pytest.param(
        lambda: TruncatedSeries((Decimal("0.5"),)),
        "Decimal Decimal('0.5')",
        id="series-decimal",
    ),
    pytest.param(
        lambda: CauchyTable(1, 1, 1, (1, 0.5), "series"), "float 0.5", id="table"
    ),
    pytest.param(lambda: WeightTable(1, 1, 0, (1.0,)), "float 1.0", id="weights"),
    pytest.param(lambda: HessenbergSpec(1.5, [1]), "float 1.5", id="spec-super"),
    pytest.param(lambda: HessenbergSpec(1, [True]), "bool True", id="spec-band-bool"),
    pytest.param(
        lambda: determinant_sequence(0.5, [1]), "float 0.5", id="determinant-super"
    ),
    pytest.param(
        lambda: determinant_sequence(1, [1, 0.25]), "float 0.25", id="determinant-band"
    ),
    pytest.param(lambda: cameron_transform([0.5]), "float 0.5", id="transform"),
    pytest.param(lambda: cameron_inverse([0.5]), "float 0.5", id="inverse"),
]


@pytest.mark.parametrize("call, shown", INEXACT)
def test_inexact_values_are_refused(call, shown):
    text = f"an exact value must be an int or a Fraction, got {shown}"
    with pytest.raises(TypeError, match=re.escape(text)):
        call()


def test_ints_become_fractions():
    spec = HessenbergSpec(1, [2, F(1, 3)])
    assert spec.band == (F(2), F(1, 3))
    assert all(type(c) is F for c in (spec.super_entry, *spec.band))
    assert determinant_sequence(1, [2]) == [F(1), F(2)]
    assert cameron_transform([1]) == [F(1)]
