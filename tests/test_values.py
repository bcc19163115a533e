import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import tilecert
from tilecert.intpoly import IntPoly
from tilecert.products import ProductSpec
from tilecert.spectra import RationalSpectrum
from tilecert.tiler import TilingCertificate
from tilecert.tileset import IntSet, divisors_of_poly
from tilecert.values import frozen

# One sample per value class, built twice per test so that equal objects are
# distinct; the repr is the text the classes printed when they were dataclasses.
SAMPLES = {
    "IntPoly": (
        lambda: IntPoly([1, 0, -2, 1]),
        "IntPoly(coeffs=(1, 0, -2, 1))",
    ),
    "IntSet": (
        lambda: IntSet([0, 1, 8, 9]),
        "IntSet(elements=(0, 1, 8, 9))",
    ),
    "CycloDivisors": (
        lambda: divisors_of_poly(IntSet([0, 1, 8, 9]).elements),
        "CycloDivisors(indices=(2, 16), prime_powers=(2, 16), by_prime=((2, (2, 16)),))",
    ),
    "TilingCertificate": (
        lambda: TilingCertificate(16, [0, 2, 4, 6]),
        "TilingCertificate(period=16, complement=(0, 2, 4, 6))",
    ),
    "RationalSpectrum": (
        lambda: RationalSpectrum([Fraction(1, 2), Fraction(1, 16), Fraction(9, 16)]),
        "RationalSpectrum(thetas=(Fraction(1, 16), Fraction(1, 2), Fraction(9, 16)))",
    ),
    "ProductSpec": (
        lambda: ProductSpec([(1, 2), (3, 2)]),
        "ProductSpec(factors=((1, 2), (3, 2)))",
    ),
}

each_class = pytest.mark.parametrize("name", sorted(SAMPLES))


def _fields(value):
    return tuple(type(value).__annotations__)


def _with(value, **changes):
    """A copy of value with some fields replaced, built around every __init__."""
    out = object.__new__(type(value))
    for field in _fields(value):
        object.__setattr__(out, field, changes.get(field, getattr(value, field)))
    return out


@each_class
def test_equality_by_fields(name):
    make = SAMPLES[name][0]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    for field in _fields(a):
        assert a != _with(a, **{field: object()}), field

    def copy_fields(self, source):
        for field in _fields(source):
            object.__setattr__(self, field, getattr(source, field))

    namespace = {"__annotations__": dict(type(a).__annotations__), "__init__": copy_fields}
    twin = frozen(type(name, (), namespace))(a)
    assert a != twin and twin != a
    assert a != getattr(a, _fields(a)[0])


@each_class
def test_equal_objects_hash_equal(name):
    a, b = SAMPLES[name][0](), SAMPLES[name][0]()
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@each_class
def test_assignment_and_deletion_raise(name):
    a = SAMPLES[name][0]()
    before = repr(a)
    for field in _fields(a) + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == before


@each_class
def test_pickle_round_trip(name):
    a = SAMPLES[name][0]()
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        b = pickle.loads(pickle.dumps(a, protocol=protocol))
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


@each_class
def test_repr_text(name):
    make, text = SAMPLES[name]
    a = make()
    assert type(a).__name__ == name
    assert repr(a) == text


def test_frozen_requires_an_init_of_its_own():
    with pytest.raises(TypeError):
        frozen(type("NoInit", (), {"__annotations__": {"x": int}}))


def test_constructors_reject_non_integers():
    # a float or a string must not become a different value, nor fail later
    bad = [
        lambda: IntSet([0, 1.5]),
        lambda: IntSet([0, "1"]),
        lambda: ProductSpec([(2.7, 2)]),
        lambda: ProductSpec([("3", "2")]),
        lambda: TilingCertificate(4.0, [0, 2]),
        lambda: TilingCertificate(4, [0, 2.0]),
    ]
    for make in bad:
        with pytest.raises(TypeError):
            make()
    # integer-like values are taken as the ints they stand for
    assert IntSet([False, True, 3]).elements == (0, 1, 3)
    assert type(IntSet([True, 2]).elements[0]) is int
    assert ProductSpec([(True, 2)]) == ProductSpec([(1, 2)])
    assert TilingCertificate(True, [False]) == TilingCertificate(1, [0])


def test_cli_import_loads_no_class_machinery():
    # -S leaves out site, so the modules found are those tilecert.cli imports
    src = os.path.dirname(os.path.dirname(tilecert.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tilecert.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
