import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from oracles import char_poly, degree, evaluate
from tilecert import tileset
from tilecert.analysis import power_sums
from tilecert.families import product_facts, run_batch, subsets
from tilecert.intpoly import IntPoly, cyclotomic, divides_cyclotomic
from tilecert.products import ProductSpec
from tilecert.report import analyze_set
from tilecert.spectra import is_root_of, spectrum_search, spectrum_search_poly, verify_spectrum
from tilecert.tileset import (
    IntSet,
    check_t1,
    check_t2,
    cyclotomic_divisors,
    divisors_of_poly,
)


def test_intset_validation():
    with pytest.raises(ValueError):
        IntSet([0])
    with pytest.raises(ValueError):
        IntSet([0, 0, 1])
    with pytest.raises(ValueError):
        IntSet([-1, 2])
    assert IntSet([3, 1, 0]).elements == (0, 1, 3)


READERS = {
    "divides_cyclotomic": lambda a: [divides_cyclotomic(a, s) for s in range(1, 13)],
    "divisors_of_poly": divisors_of_poly,
    "cyclotomic_divisors": cyclotomic_divisors,
    "is_root_of": lambda a: [is_root_of(a, Fraction(k, q)) for q in range(1, 13) for k in range(q)],
    "verify_spectrum": lambda a: [verify_spectrum(a, t) for t in ([Fraction(1, 2)], [Fraction(1, 6)],
                                                                 [Fraction(1, 2), Fraction(1, 6)])],
    "spectrum_search_poly": spectrum_search_poly,
    "power_sums": lambda a: power_sums(a, 8),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_each_set_reader_answers_alike_on_an_unsorted_input_and_a_far_translate(read):
    # every library function that reads a set takes the IntSet, which
    # sorts its input once; the elements are read relative to the minimum
    unsorted, far = IntSet((1, 0, 3, 4)), 10**12
    moved = IntSet((far + 1, far, far + 3, far + 4))
    assert read(unsorted) == read(moved) == read(IntSet((0, 1, 3, 4)))


def test_intset_parse():
    assert IntSet.parse("0,1,3").elements == (0, 1, 3)
    assert IntSet.parse(" 2, 7 ").elements == (2, 7)
    with pytest.raises(ValueError):
        IntSet.parse("0")
    with pytest.raises(ValueError):
        IntSet.parse("0,x")


def test_char_poly_examples():
    # the dense polynomial of a set is a test oracle; the library reads the elements
    assert char_poly((0, 1)) == IntPoly([1, 1])
    assert char_poly((0, 2, 4)) == IntPoly([1, 0, 1, 0, 1])
    assert char_poly((0, 1, 3, 4)) == IntPoly([1, 1, 0, 1, 1])


def test_char_poly_injective_and_counts_size():
    seen = {}
    for size in (2, 3, 4):
        for combo in itertools.combinations(range(9), size):
            a = IntSet(combo)
            p = char_poly(a.elements)
            assert evaluate(p, 1) == a.size
            assert p.coeffs not in seen
            seen[p.coeffs] = combo


def test_cyclotomic_divisors_examples():
    inv = cyclotomic_divisors(IntSet((0, 1, 2, 3)))
    assert inv.indices == (2, 4)
    assert inv.prime_powers == (2, 4)
    assert inv.by_prime == ((2, (2, 4)),)

    assert cyclotomic_divisors(IntSet((0, 1, 3))).indices == ()

    inv = cyclotomic_divisors(IntSet((0, 2, 4)))
    assert inv.indices == (3, 6)
    assert inv.prime_powers == (3,)


def test_divisor_list_matches_direct_division():
    for combo in itertools.combinations(range(8), 3):
        a = IntSet(combo)
        poly = char_poly([x - combo[0] for x in combo])
        reported = set(cyclotomic_divisors(a).indices)
        deg = degree(poly)
        for s in range(2, 2 * deg * deg + 2):
            divides = not poly.divrem(cyclotomic(s))[1].coeffs if degree(cyclotomic(s)) <= deg else False
            assert (s in reported) == divides, (combo, s)


def test_t1_examples():
    assert check_t1(IntSet([0, 1, 2, 3]))
    assert not check_t1(IntSet([0, 1, 3]))
    assert check_t1(IntSet([0, 2, 4]))


def test_t2_examples():
    # prime powers of one prime only: vacuous
    assert check_t2(IntSet([0, 1, 2, 3]))
    # inventory of {0,2,3,5} is {2,4} (plus the non-prime-power 6): still one prime
    assert cyclotomic_divisors(IntSet((0, 2, 3, 5))).prime_powers == (2, 4)
    assert check_t2(IntSet([0, 2, 3, 5]))
    # {0..5} has prime powers {2,3}; the cross product 6 divides
    inv = cyclotomic_divisors(IntSet((0, 1, 2, 3, 4, 5)))
    assert inv.prime_powers == (2, 3)
    assert divides_cyclotomic(IntSet(range(6)), 6)
    assert check_t2(IntSet(range(6)))


def test_t2_failure_case():
    # inventory {2, 3} but the sixth cyclotomic does not divide:
    # (1+x)(1+x+x^2) has inventory {2,3,6}... build one without 6 instead.
    # {0,1,2,4,5,6}: A = (1+x+x^2)(1+x^4) has prime powers {3, 8}, and
    # the cross product 24 has totient 8 > degree 6, so t2 must fail.
    a = IntSet([0, 1, 2, 4, 5, 6])
    inv = cyclotomic_divisors(a)
    assert inv.prime_powers == (3, 8)
    assert not check_t2(a)


def test_t2_matches_division_based_definition():
    # (T2) reads the inventory; the definition divides by each cross-prime product.
    def t2_by_division(a):
        groups = [g for _, g in cyclotomic_divisors(a).by_prime]
        return all(
            divides_cyclotomic(a, math.prod(combo))
            for k in range(2, len(groups) + 1)
            for chosen in itertools.combinations(groups, k)
            for combo in itertools.product(*chosen)
        )

    # (T2) holds on every set of subsets(12, 5); the 6-element sets add
    # the failing cases.
    failures = 0
    for a in subsets(12, 6):
        holds = check_t2(a)
        assert holds == t2_by_division(a), a
        failures += not holds
    assert failures > 0


def test_t1_matches_definition_by_values_at_one():
    # (T1) reads p ** len(group) off the prime groups; the definition
    # multiplies the values at 1 of the prime-power cyclotomic polynomials.
    outcomes = set()
    for a in subsets(12, 6):
        powers = cyclotomic_divisors(a).prime_powers
        holds = check_t1(a)
        assert holds == (math.prod(evaluate(cyclotomic(s), 1) for s in powers) == a.size), a
        outcomes.add(holds)
    assert outcomes == {False, True}


def test_divisor_indices_respect_degree_bound():
    from tilecert.arith import euler_phi

    for combo in ((0, 1, 2, 3), (0, 2, 4), (0, 1, 8, 9), (0, 2, 3, 5)):
        a = IntSet(combo)
        deg = degree(char_poly([x - combo[0] for x in combo]))
        inv = cyclotomic_divisors(a)
        assert all(euler_phi(s) <= deg for s in inv.indices)
        assert set(inv.prime_powers) <= set(inv.indices)


def test_translation_invariance():
    rng = random.Random(5)
    for _ in range(60):
        size = rng.randint(2, 5)
        base = IntSet(rng.sample(range(12), size))
        shift = rng.randint(1, 9)
        moved = IntSet(x + shift for x in base.elements)
        assert cyclotomic_divisors(base) == cyclotomic_divisors(moved)
        assert check_t1(base) == check_t1(moved)
        assert check_t2(base) == check_t2(moved)


def test_one_inventory_per_set_and_only_one_kept(monkeypatch):
    # every stage reads the memo, the clique search included, so a set
    # costs one scan, and the memo keeps the set under analysis only.
    # Every module's binding of the scan is counted, so a stage that
    # scans past the memo is counted too.
    cyclotomic_divisors.cache_clear()
    calls = []
    scan = tileset.divisors_of_poly

    def counted(a):
        calls.append(a)
        return scan(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("tilecert") and getattr(module, "divisors_of_poly", None) is scan:
            monkeypatch.setattr(module, "divisors_of_poly", counted)
    a = IntSet([0, 1, 8, 9])
    analyze_set(a)
    spectrum_search(IntSet(a.elements))
    assert len(calls) == 1
    # the product report analyzes {0,1,2,3}, and the clique search reads that inventory
    calls.clear()
    assert product_facts(ProductSpec.parse("1:2,2:2"))["spectrum_search"] is True
    assert calls == [IntSet([0, 1, 2, 3])]
    sets = list(subsets(8, 4))
    calls.clear()
    run_batch("subsets", sets, "granville-period")
    assert len(calls) == len(sets)
    assert cyclotomic_divisors.cache_info().currsize == 1
