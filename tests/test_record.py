"""The frozen records: equality, hash, repr, validation and immutability,
and a package import that does not load dataclasses or inspect."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qchains
from qchains.fristedt import FristedtParams
from qchains.glchain import ChainSample
from qchains.identities import AGSpec, BaileyPair
from qchains.partitions import MeasureParams, Partition
from qchains.qalgebra import Interval, QSeries
from qchains.quiver import PartitionTuple, Quiver, QuiverParams, TruncatedSum

P12 = MeasureParams(u=F(1, 2), q=F(2))

# one record of each class, with its constructor's arguments in field order
RECORDS = [
    (Interval, (F(1, 3), F(1, 2))),
    (Partition, ((3, 1, 1),)),
    (MeasureParams, (F(1, 2), F(2))),
    (FristedtParams, (F(1, 2),)),
    (AGSpec, (3, 2, 40)),
    (BaileyPair, ((F(1), F(-1, 2)), (F(1), F(0)), P12)),
    (Quiver, (2, ((0, 1), (1, 0)))),
    (QuiverParams, (F(2), (F(1, 4), F(1, 3)))),
    (PartitionTuple, ((Partition([2, 1]), Partition([])),)),
    (TruncatedSum, (F(3), 20, F(1, 10**9), False)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, args):
    a, b = cls(*args), cls(**dict(zip(cls.__slots__, args)))
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in cls.__slots__) == args
    assert a != args and args != a  # never equal to a plain tuple
    assert a != None  # noqa: E711
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a


def test_partitions_and_matrices_pickle_and_copy():
    """Every value type, with one of its fields: a pickled, copied or
    deep-copied value is an equal value of the same type, and refuses
    assignment and deletion of that field."""
    values = [
        (QSeries([1, -2, 5], order=6), "coeffs"),
        (QSeries([1, 0, 3 * 2**100], var="y"), "coeffs"),
        (Partition([3, 1, 1]), "parts"),
        (Partition([]), "parts"),
        (PartitionTuple(([2, 1], [])), "components"),
        (ChainSample(7, (2, 1), Partition([2, 1])), "partition"),
    ]
    for value, name in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
            assert getattr(twin, "order", None) == getattr(value, "order", None)
            with pytest.raises(AttributeError):
                setattr(twin, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(twin, name)
            assert twin == value


def test_records_of_other_classes_or_fields_differ():
    assert Interval(F(1, 2), F(2)) != MeasureParams(F(1, 2), F(2))
    assert MeasureParams(F(1, 2), F(2)) != MeasureParams(F(1, 3), F(2))
    assert AGSpec(3, 2, 40) != AGSpec(3, 2, 41)
    assert TruncatedSum(F(3), 20, F(1)) != TruncatedSum(F(3), 20, F(1), True)


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_records_are_immutable(cls, args):
    a = cls(*args)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, args[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in cls.__slots__) == args


def test_repr_names_every_field():
    assert repr(MeasureParams(F(1, 2), 2)) == (
        "MeasureParams(u=Fraction(1, 2), q=Fraction(2, 1))"
    )
    assert repr(AGSpec(3, 2, 40)) == "AGSpec(k=3, i=2, order=40)"
    assert repr(TruncatedSum(F(3), 20, F(1, 10))) == (
        "TruncatedSum(value=Fraction(3, 1), size_cap=20, "
        "last_increment=Fraction(1, 10), certified=False)"
    )
    assert repr(PartitionTuple(([1],))) == "PartitionTuple(components=(Partition([1]),))"


def test_fields_are_coerced():
    p = MeasureParams("1/2", 2)
    assert (p.u, p.q) == (F(1, 2), F(2)) and type(p.q) is F
    assert FristedtParams("1/3").q == F(1, 3)
    assert QuiverParams(2, ["1/4"]).u == (F(1, 4),)
    pair = BaileyPair([1, "1/2"], [0, 2], P12)
    assert pair.alpha == (F(1), F(1, 2)) and type(pair.alpha) is tuple
    assert Quiver(1, [[True]]).f == ((1,),)
    assert PartitionTuple([[2, 1]]).components == (Partition([2, 1]),)
    assert TruncatedSum(F(1), 3, F(0)).certified is False


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Interval(F(1), F(0)), "empty interval"),
        (lambda: MeasureParams(F(1, 2), F(1)), "q must be > 1"),
        (lambda: MeasureParams(F(0), F(2)), "0 < u <= 1"),
        (lambda: MeasureParams(F(1), F(1, 2)), "q must be > 1"),
        (lambda: FristedtParams(F(1)), "0 < q < 1"),
        (lambda: AGSpec(1, 1, 10), "k must be >= 2"),
        (lambda: AGSpec(3, 4, 10), "1 <= i <= k"),
        (lambda: AGSpec(3, 1, -1), "order must be >= 0"),
        (lambda: BaileyPair((1,), (1, 2), P12), "equal length"),
        (lambda: BaileyPair((), (), P12), "nonempty"),
        (lambda: Quiver(0, ()), "at least one vertex"),
        (lambda: Quiver(2, ((0, 1),)), "n x n"),
        (lambda: Quiver(2, ((0, 1), (0, 0))), "symmetric"),
        (lambda: Quiver(1, ((-1,),)), ">= 0"),
        (lambda: QuiverParams(F(1), (F(1, 2),)), "q must be > 1"),
        (lambda: QuiverParams(F(2), (F(1),)), "0 < U_i < 1"),
        (lambda: PartitionTuple(([1, 2],)), "weakly decreasing"),
    ],
)
def test_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_disconnected_quiver_warns():
    with pytest.warns(UserWarning, match="not connected"):
        Quiver(2, ((0, 0), (0, 0)))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter without site-packages imports the CLI without
    dataclasses, or inspect, which dataclasses would load."""
    src = str(Path(qchains.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qchains.cli; "
            "print(sorted({'dataclasses', 'inspect', 'qchains.cli'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "['qchains.cli']\n"
