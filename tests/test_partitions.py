"""Partition type, enumeration, and the two equivalent mass formulas."""

import ast
import importlib
import inspect
import itertools
import pathlib
import pkgutil
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qchains
from qchains.partitions import (
    MeasureParams,
    Partition,
    enumerate_partitions,
    gl_order,
    mass_v1,
    mass_v2,
)
from qchains.qalgebra import poch_inf


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    opts = enumerate_partitions(n)
    return opts[draw(st.integers(min_value=0, max_value=len(opts) - 1))]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    # the first offending part names the error
    with pytest.raises(ValueError, match="positive"):
        Partition([1, 0, 2])
    with pytest.raises(ValueError, match="decreasing"):
        Partition([2, 3, 0])
    assert Partition([]).size == 0


def test_conjugate_example():
    assert Partition([5, 4, 4, 1]).conjugate() == Partition([4, 3, 3, 3, 1])


def test_conjugate_empty():
    assert Partition([]).conjugate() == Partition([])


@settings(max_examples=40, deadline=None)
@given(lam=partitions())
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.integers(1, 40), max_size=40))
def test_conjugate_matches_its_definition(parts):
    lam = Partition(sorted(parts, reverse=True))
    top = lam.parts[0] if lam.parts else 0
    want = [sum(1 for p in lam.parts if p >= j) for j in range(1, top + 1)]
    assert lam.conjugate().parts == tuple(want)


@settings(max_examples=40, deadline=None)
@given(lam=partitions())
def test_multiplicities_consistent(lam):
    assert sum(i * m for i, m in lam.multiplicities().items()) == lam.size
    if lam.parts:
        assert lam.conjugate().parts[0] == len(lam)


def test_enumeration_counts():
    assert [len(enumerate_partitions(n)) for n in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]


def test_enumeration_order_is_lex_decreasing():
    got = [p.parts for p in enumerate_partitions(5)]
    assert got == sorted(got, reverse=True)
    assert got[0] == (5,)
    assert got[-1] == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("n", range(13))
def test_enumeration_order_matches_a_brute_force_sort(n):
    # every composition of n is a subset of the n - 1 cut points; keep the
    # weakly decreasing ones
    found = set()
    for cuts in itertools.product((0, 1), repeat=max(n - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        parts = parts + [run] if n else []
        if parts == sorted(parts, reverse=True):
            found.add(tuple(parts))
    assert [p.parts for p in enumerate_partitions(n)] == sorted(found, reverse=True)


def test_no_module_keeps_an_unbounded_cache():
    def unbounded(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "cache":
            return True
        if name != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)

    names = [m.name for m in pkgutil.iter_modules(qchains.__path__)]
    assert "partitions" in names
    for name in names:
        source = inspect.getsource(importlib.import_module(f"qchains.{name}"))
        found = [n.lineno for n in ast.walk(ast.parse(source)) if unbounded(n)]
        assert not found, f"qchains.{name}: unbounded cache at lines {found}"


def test_every_export_is_read_inside_the_package():
    # a name in a module's __all__ is read (as a Name or an Attribute)
    # somewhere in qchains outside its own definition, __init__ and the
    # __all__ lists.  The two laws stated by the paper wait for a verify
    # suite that reads them.
    waiting = {"first_col_law", "row_law_limit"}
    exported, read = {}, set()
    for path in pathlib.Path(qchains.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and "__all__" in [
                getattr(t, "id", None) for t in node.targets
            ]:
                exported.update(dict.fromkeys(ast.literal_eval(node.value), path.stem))
                continue
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                ref = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if ref is not None and ref != own:
                    read.add(ref)
    assert waiting <= exported.keys()
    unread = {f"{exported[name]}.{name}" for name in exported.keys() - read - waiting}
    assert not unread, f"exported but never read: {sorted(unread)}"
    assert not waiting & read, "a waiting law is read now; take it off the list"


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_partitions(41)


def test_measure_params_validation():
    MeasureParams(u=F(1), q=F(2))  # u = 1 allowed
    with pytest.raises(ValueError):
        MeasureParams(u=F(0), q=F(2))
    with pytest.raises(ValueError):
        MeasureParams(u=F(3, 2), q=F(2))
    with pytest.raises(ValueError):
        MeasureParams(u=F(1, 2), q=F(1))


def test_gl_order_values():
    assert gl_order(0, F(2)) == 1
    assert gl_order(1, F(2)) == 1
    assert gl_order(2, F(2)) == 6
    assert gl_order(3, F(2)) == (8 - 1) * (8 - 2) * (8 - 4)


def test_mass_examples():
    p = MeasureParams(u=F(1, 2), q=F(2))
    assert mass_v1(Partition([]), p) == 1
    assert mass_v2(Partition([]), p) == 1
    # u/(q-1) for the one-box partition
    assert mass_v1(Partition([1]), p) == F(1, 2)
    assert mass_v2(Partition([1]), p) == F(1, 2)
    # u^2 / (q^4 (1/q)_2)
    q = p.q
    poch2 = (1 - 1 / q) * (1 - 1 / q**2)
    assert mass_v1(Partition([1, 1]), p) == p.u**2 / (q**4 * poch2)


@pytest.mark.parametrize(
    "u,q",
    [(F(1, 2), F(2)), (F(1, 3), F(3)), (F(1), F(2)), (F(1, 2), F(5, 2))],
)
def test_mass_formulas_agree(u, q):
    p = MeasureParams(u=u, q=q)
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert mass_v1(lam, p) == mass_v2(lam, p), lam


def test_normalization_partial_sums():
    p = MeasureParams(u=F(1, 2), q=F(2))
    z = poch_inf(p.u, p.q, F(1, 10**14))
    total = F(0)
    prev = F(0)
    for n in range(31):
        total += sum(mass_v1(lam, p) for lam in enumerate_partitions(n))
        assert total > prev
        prev = total
    # partial sums times the certified prefactor reach 1 to 1e-10
    tol = F(1, 10**10)
    assert 1 - total * z.lo < tol
    assert total * z.hi < 1 + tol
