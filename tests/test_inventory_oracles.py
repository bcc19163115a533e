"""The inventory checked against the code it replaced.

The library takes its inventory candidates from Mann's theorem on sparse
sets, enumerates every s with phi(s) <= span directly on dense ones,
reads each set's 0/1 polynomial from its elements, and builds each
cyclotomic polynomial from sparse binomial factors.  The slow paths it
replaced stay here as oracles:

* the totient scan, which tests every s with phi(s) <= deg, with the
  modular reject in front of the division;
* the quadratic scan, which tests every s <= 2*deg**2 + 1 with
  phi(s) <= deg (complete because phi(s) > sqrt(s/2) for s >= 2);
* the recursive cyclotomic, which divides x**s - 1 by the cyclotomic
  polynomial of every proper divisor of s;
* the unfiltered inventory, which divides the dense polynomial
  (``oracles.dense_divides_cyclotomic``) by every candidate instead of
  first rejecting those whose cyclotomic value at 1, -1 or 2 does not
  divide p's, or with p(w) != 0 mod q;
* evaluation of the built cyclotomic polynomial, for the closed forms
  of its values at 1, -1 and 2 that those rejects read.
"""

import functools
import math
import random

import pytest

from oracles import (
    char_poly,
    degree,
    dense_divides_cyclotomic,
    evaluate,
    tower_set,
    unfiltered_divisor_indices,
    x_pow_minus_one,
)
from tilecert.arith import (
    cyclotomic_at_minus_one,
    cyclotomic_at_one,
    cyclotomic_at_two,
    divisors,
    divisors_totient_at_most,
    euler_phi,
    factorize,
    prime_count,
    root_of_unity_mod_prime,
    totient_at_most,
)
from tilecert.intpoly import IntPoly, cyclotomic, divides_cyclotomic
from tilecert import tileset
from tilecert.tileset import IntSet, divisors_of_poly

_OLD_CYCLOTOMIC: dict[int, IntPoly] = {}


def old_cyclotomic(s: int) -> IntPoly:
    if s not in _OLD_CYCLOTOMIC:
        poly = x_pow_minus_one(s)
        for d in divisors(s)[:-1]:
            poly, rem = poly.divrem(old_cyclotomic(d))
            assert rem.is_zero()
        _OLD_CYCLOTOMIC[s] = poly
    return _OLD_CYCLOTOMIC[s]


# the quadratic scan reads phi up to 2 * 120**2 + 1, past the library's
# bounded memo, so it keeps every value it has computed in its own
_scan_phi = functools.cache(euler_phi)


def old_candidates(deg: int) -> list[int]:
    return [s for s in range(2, 2 * deg * deg + 2) if _scan_phi(s) <= deg]


def old_divisor_indices(p: IntPoly) -> list[int]:
    return [s for s in old_candidates(degree(p))
            if p.divrem(old_cyclotomic(s))[1].is_zero()]


def inventory(exps) -> list[int]:
    return list(divisors_of_poly(IntSet(exps)).indices)


def on_dense_path(exps) -> bool:
    """Whether the inventory takes every s with phi(s) <= span as its candidates."""
    k = len(exps)
    return (k - 1) * prime_count(k) > exps[-1] - exps[0]


def rejects_at_two(exps) -> bool:
    """Whether the inventory's third reject is A(2) mod Phi_s(2), not A(w) mod q."""
    span = exps[-1] - exps[0]
    return span * span <= (1 << 17) * len(exps)


def test_totient_enumeration_matches_quadratic_scan():
    for deg in range(121):
        assert list(totient_at_most(deg)) == old_candidates(deg), deg


def test_bounded_divisors_match_filtered_divisor_list():
    for n in range(1, 1201):
        for bound in (0, 1, 4, 40, 400):
            expected = [d for d in divisors(n)[1:] if euler_phi(d) <= bound]
            assert divisors_totient_at_most(factorize(n), bound) == expected, (n, bound)


def test_cyclotomic_matches_recursive_division():
    for s in range(1, 401):
        assert cyclotomic(s) == old_cyclotomic(s), s


def test_inventory_matches_quadratic_scan_on_random_polynomials():
    # 0/1 polynomials of degree at most 60: random sets, and tower products
    # so that the inventory is not empty; a third are shifted off 0
    rng = random.Random(2024)
    nonempty = 0
    for trial in range(60):
        if trial % 2:
            top = rng.randint(1, 50)
            exps = sorted({0, top} | set(rng.sample(range(1, top), rng.randint(0, top - 1))))
        else:
            exps = tower_set(rng, 50)
        shift = rng.randint(1, 10) if trial % 3 == 0 else 0
        exps = [e + shift for e in exps]
        found = inventory(exps)
        assert found == old_divisor_indices(char_poly(exps)), exps
        nonempty += bool(found)
    assert nonempty >= 30, nonempty


def test_root_of_unity_mod_prime_has_exact_order():
    for s in range(2, 3001):
        q, w = root_of_unity_mod_prime(s)
        assert q % s == 1 and all(q % d for d in range(2, math.isqrt(q) + 1)), s
        assert pow(w, s, q) == 1, s
        assert all(pow(w, s // p, q) != 1 for p, _ in factorize(s)), s


def test_root_of_unity_mod_prime_rejects_orders_below_two():
    for s in (1, 0, -3):
        with pytest.raises(ValueError):
            root_of_unity_mod_prime(s)


def test_cyclotomic_values_match_evaluation():
    # the value at 1 is checked by test_intpoly.py::test_cyclotomic_at_one
    for s in range(1, 401):
        phi = cyclotomic(s)
        assert cyclotomic_at_minus_one(s) == evaluate(phi, -1), s
        assert cyclotomic_at_two(s) == evaluate(phi, 2), s


@pytest.mark.parametrize("helper", [cyclotomic_at_one, cyclotomic_at_minus_one, cyclotomic_at_two])
def test_cyclotomic_values_reject_indices_below_one(helper):
    for s in (0, -3):
        with pytest.raises(ValueError):
            helper(s)


def divisions_tried(monkeypatch, exps) -> tuple[list[int], list[int]]:
    """The inventory of the set, and the indices that reached the exact division."""
    tried = []

    def recorder(a, s):
        tried.append(s)
        return divides_cyclotomic(a, s)

    monkeypatch.setattr(tileset, "divides_cyclotomic", recorder)
    return inventory(exps), tried


def test_filter_false_positive_is_decided_by_division(monkeypatch):
    # Sparse path: {0, 1, 10} has 3 elements and span 10 >= 2 * pi(3), and
    # 10**2 <= 2**17 * 3 puts it on the reject at 2.  The twelfth
    # cyclotomic polynomial x**4 - x**2 + 1 takes the value 1 at 1 and -1
    # and 13 at 2, where 1 + 2 + 2**10 = 1027 = 79 * 13; so s = 12 passes
    # every reject.  (Its root mod 13 is w = 2, so the mod-q reject would
    # pass it too.)  It does not divide, and the division says so.
    exps = [0, 1, 10]
    assert not on_dense_path(exps) and rejects_at_two(exps)
    assert tileset._candidate_indices(exps) == [2, 3, 4, 5, 6, 10, 12, 15, 20, 30]
    assert cyclotomic_at_two(12) == 13 and root_of_unity_mod_prime(12) == (13, 2)
    assert (1 + 2 + 2**10) % 13 == 0
    assert cyclotomic_at_one(12) == cyclotomic_at_minus_one(12) == 1
    assert not divides_cyclotomic(IntSet(exps), 12)
    found, tried = divisions_tried(monkeypatch, exps)
    assert 12 in tried and 12 not in found
    assert found == unfiltered_divisor_indices(exps)


def test_dense_false_positive_is_decided_by_division(monkeypatch):
    # Dense path: {0, 1, 2, 5} has 4 elements and span 5 < 3 * pi(4).  At
    # s = 12 its values pass every reject: A(1) = 4 and A(-1) = 0 against
    # Phi_12(1) = Phi_12(-1) = 1, and A(2) = 39 = 3 * Phi_12(2).  Only the
    # second cyclotomic polynomial x + 1 divides A.
    exps = [0, 1, 2, 5]
    a = char_poly(exps)
    assert (evaluate(a, 1), evaluate(a, -1), evaluate(a, 2)) == (4, 0, 39)
    assert cyclotomic_at_two(12) == 13 and cyclotomic_at_one(12) == cyclotomic_at_minus_one(12) == 1
    assert on_dense_path(exps)
    assert tileset._candidate_indices(exps) == (2, 3, 4, 5, 6, 8, 10, 12)
    found, tried = divisions_tried(monkeypatch, exps)
    assert 12 in tried
    assert found == [2] == unfiltered_divisor_indices(exps)


@pytest.mark.parametrize("exps, dense, mod_q", [
    pytest.param(range(0, 151 * 29, 29), True, False, id="dense-at-two"),
    pytest.param(range(0, 151 * 31, 31), True, True, id="dense-mod-q"),
    pytest.param((0, 1, 620), False, False, id="sparse-at-two"),
    pytest.param((0, 1, 630), False, True, id="sparse-mod-q"),
])
def test_third_reject_follows_its_cost(monkeypatch, exps, dense, mod_q):
    # Phi_s(2) and the remainder by it grow with span * phi(s), the mod-q
    # chain with k, so the mod-q reject takes over once
    # span**2 > 2**17 * k, whichever candidate list the set takes.
    # 151 points spaced by 29 or 31 take the totient list (the span
    # 150 * step is below (k - 1) * pi(k) = 150 * 36): 4350**2 is below
    # 2**17 * 151, 4650**2 above, and the polynomial is
    # (x**(151 * step) - 1) / (x**step - 1).  {0, 1, 620} and {0, 1, 630}
    # take Mann's list: 620**2 = 384,400 is below 2**17 * 3 = 393,216,
    # 630**2 = 396,900 above.  1 + z + z**620 = 0 for z of order 3, since
    # 620 = 2 (mod 3), and 630 = 0 (mod 3) leaves 1 + x + x**630 none.
    calls = {root_of_unity_mod_prime: 0, cyclotomic_at_two: 0}

    def counted(f):
        def call(s):
            calls[f] += 1
            return f(s)
        return call

    monkeypatch.setattr(tileset, "root_of_unity_mod_prime", counted(root_of_unity_mod_prime))
    monkeypatch.setattr(tileset, "cyclotomic_at_two", counted(cyclotomic_at_two))
    exps = list(exps)
    assert (on_dense_path(exps), rejects_at_two(exps)) == (dense, not mod_q)
    found = inventory(exps)
    if dense:
        step, top = exps[1], exps[-1] + exps[1]
        assert found == [s for s in divisors(top) if step % s]
    else:
        assert found == unfiltered_divisor_indices(exps) == ([] if mod_q else [3])
    assert (calls[root_of_unity_mod_prime] > 0, calls[cyclotomic_at_two] > 0) == (mod_q, not mod_q)


def test_inventory_matches_unfiltered_scan_on_seeded_sets():
    rng = random.Random(31)
    for deg in (50, 150, 300):
        exps = sorted({0, deg} | {x for x in range(1, deg) if rng.random() < 0.3})
        assert inventory(exps) == unfiltered_divisor_indices(exps), deg


def test_inventory_matches_unfiltered_scan_on_dense_inputs():
    # seeded sets on the dense path, where A(2) decides the rejects that
    # A(1) and A(-1) leave: random sets and tower products, some shifted
    # off 0
    rng = random.Random(97)
    checked = nonempty = 0
    for trial in range(260):
        if trial % 2:
            span = rng.randint(3, 60)
            k = rng.randint(min(span + 1, 4 + span // 3), span + 1)
            exps = sorted({0, span} | set(rng.sample(range(1, span), k - 2)))
        else:
            exps = tower_set(rng, rng.randint(12, 60))
        low = rng.choice((0, 0, rng.randint(1, 20)))
        exps = [low + x for x in exps]
        if not on_dense_path(exps):
            continue
        found = inventory(exps)
        assert found == unfiltered_divisor_indices(exps), exps
        checked += 1
        nonempty += bool(found)
    assert checked >= 200 and nonempty >= 100, (checked, nonempty)


def test_inventory_of_initial_segments():
    # 1 + x + ... + x**(n-1) = (x**n - 1)/(x - 1) is the product of the
    # cyclotomic polynomials of the divisors d >= 2 of n.  The unfiltered
    # scan runs on a few n only, to keep the suite fast.
    for n in range(2, 129):
        exps = range(n)
        assert inventory(exps) == divisors(n)[1:], n
        if n in (60, 128):
            assert inventory(exps) == unfiltered_divisor_indices(exps), n


def totient_scan_divisor_indices(exps) -> list[int]:
    p = char_poly(exps)
    found = []
    for s in totient_at_most(degree(p)):
        q, w = root_of_unity_mod_prime(s)
        if sum(pow(w, e, q) for e in exps) % q == 0 and dense_divides_cyclotomic(p, s):
            found.append(s)
    return found


def random_set(rng: random.Random) -> IntSet:
    k = rng.randint(2, 8)
    top = rng.randint(k - 1, 300)
    return IntSet({0, top} | set(rng.sample(range(1, top), k - 2)))


def test_mann_candidates_match_totient_scan_on_seeded_sets():
    # The unfiltered scan costs about 25 ms a set here, so it runs on every
    # tenth set; the totient scan (the same candidates, and a reject that
    # keeps every divisor) runs on all of them.
    rng = random.Random(61)
    nonempty = 0
    for trial in range(600):
        exps = random_set(rng).elements
        found = inventory(exps)
        assert found == totient_scan_divisor_indices(exps), exps
        if trial % 10 == 0:
            assert found == unfiltered_divisor_indices(exps), exps
        nonempty += bool(found)
    assert nonempty >= 150


def test_mann_candidates_on_shifted_sets():
    # sets on the Mann path whose lowest element is e > 0, so that the
    # dense oracle has a zero constant term: half tower products with wide
    # strides (every one a tile), half random sparse sets
    rng = random.Random(73)
    checked = nonempty = 0
    for trial in range(200):
        if trial % 2:
            exps = tower_set(rng, 60, stride=(2, 3, 4, 5))
        else:
            k = rng.randint(2, 6)
            exps = sorted({0} | set(rng.sample(range(1, 80), k - 1)))
        shift = rng.randint(1, 20)
        exps = [e + shift for e in exps]
        if on_dense_path(exps):
            continue
        found = inventory(exps)
        assert found == unfiltered_divisor_indices(exps), exps
        checked += 1
        nonempty += bool(found)
    assert checked >= 150 and nonempty >= 80, (checked, nonempty)


def test_mann_candidates_with_reject_at_two():
    # seeded sets on Mann's list with span**2 <= 2**17 * k, where A(2) mod
    # Phi_s(2) decides what the rejects at 1 and -1 leave: half tower
    # products with wide strides, half random sparse sets, each also
    # shifted by up to 500; the dense oracle runs on both, and since it
    # scans the candidates of the span, a translate costs about what its
    # set does.
    rng = random.Random(19)
    checked = nonempty = 0
    for trial in range(40):
        if trial % 2:
            exps = tower_set(rng, rng.randint(60, 300), stride=(2, 3, 4, 5))
        else:
            k = rng.randint(2, 10)
            span = rng.randint(10 * k, 300)
            exps = sorted({0, span} | set(rng.sample(range(1, span), k - 2)))
        if on_dense_path(exps):
            continue
        assert rejects_at_two(exps)
        shift = rng.randint(1, 500)
        shifted = [e + shift for e in exps]
        found = inventory(exps)
        assert found == unfiltered_divisor_indices(exps), exps
        assert inventory(shifted) == found == unfiltered_divisor_indices(shifted), shifted
        checked += 1
        nonempty += bool(found)
    assert checked >= 30 and nonempty >= 15, (checked, nonempty)


GATE_SETS = [
    (0, 1, 8, 9), (0, 3, 7, 28), (3, 7, 10, 14), (0, 9, 18, 108, 117, 126),
    (0, 1, 240), (0, 1, 120, 240), (0, 5, 11, 17, 23, 61, 130, 201, 245),
]


@pytest.mark.parametrize("elements", GATE_SETS)
def test_inventory_of_gate_sets_matches_unfiltered_scan(elements):
    # the dense oracle keeps the offset, so {3,7,10,14} has a zero constant term
    assert inventory(elements) == unfiltered_divisor_indices(elements)


def test_inventory_of_sparse_set_of_degree_1200():
    # The unfiltered scan takes seconds here.  1 + z + z**1200 = 0 with
    # |z| = 1 makes 1, z, z**1200 the three cube roots of unity, so z has
    # order 3 and 1200 = 2 (mod 3), which is false: the inventory is empty.
    exps = (0, 1, 1200)
    assert inventory(exps) == totient_scan_divisor_indices(exps) == []


# ``poly`` holds the exponents of a 0/1 polynomial
@pytest.mark.parametrize("poly, candidates", [
    ((0, 1, 240), 34),
    ((0, 1, 200000), 94),
    (tuple(range(16)), 25),
])
def test_candidate_counts(monkeypatch, poly, candidates):
    # the candidates as the scan takes them, before any reject: the Mann list
    # does not grow with the degree ({0,1,240} had 483 totient candidates,
    # {0,1,200000} about 380,000), and {0..15} keeps the totient list
    seen = []
    candidate_indices = tileset._candidate_indices

    def recorder(exps):
        found = candidate_indices(exps)
        seen.extend(found)
        return found

    monkeypatch.setattr(tileset, "_candidate_indices", recorder)
    inventory(poly)
    assert len(seen) == candidates
    assert seen == sorted(set(seen))
