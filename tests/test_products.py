import itertools
import math
import random

import pytest

from lattice import echelon, in_lattice, w_basis
from oracles import poly_mul, progression_poly, two_factor_condition
from tilecert import products
from tilecert.intpoly import IntPoly
from tilecert.tileset import CertificateError, check_t1, check_t2
from tilecert.tiler import find_tiling
from tilecert.families import three_factor_specs, two_factor_specs
from tilecert.products import (
    ProductSpec,
    check_keller_violation,
    keller_violation_witness,
    product_poly,
    product_set,
    tower_condition,
)


def normalize_gcd(spec: ProductSpec) -> ProductSpec:
    """Divide every step by the gcd of all steps.

    Tiling, both Coven-Meyerowitz conditions, and the tower condition
    are invariant under this contraction.
    """
    g = math.gcd(*spec.steps)
    if g == 1:
        return spec
    return ProductSpec((m // g, n) for m, n in spec.factors)


def all_specs(max_m, lengths, count):
    for ms in itertools.product(range(1, max_m + 1), repeat=count):
        for ns in itertools.product(lengths, repeat=count):
            yield ProductSpec(zip(ms, ns))


def test_spec_validation_and_parse():
    with pytest.raises(ValueError):
        ProductSpec([])
    with pytest.raises(ValueError):
        ProductSpec([(0, 2)])
    with pytest.raises(ValueError):
        ProductSpec([(1, 1)])
    spec = ProductSpec.parse("1:2,3:2")
    assert spec.factors == ((1, 2), (3, 2))
    assert str(spec) == "1:2,3:2"
    with pytest.raises(ValueError):
        ProductSpec.parse("1-2")
    with pytest.raises(ValueError, match="bad factor '1:x'"):
        ProductSpec.parse("1:2,1:x")
    # an empty token is skipped, not refused
    assert ProductSpec.parse("1:2,, 3:2,") == spec


def test_product_poly_examples():
    assert product_poly(ProductSpec([(1, 2)])) == (1, 1)
    assert product_poly(ProductSpec([(1, 2), (2, 2)])) == (1, 1, 1, 1)
    assert product_poly(ProductSpec([(1, 2), (3, 2)])) == (1, 1, 0, 1, 1)
    assert product_poly(ProductSpec([(2, 2), (2, 2)])) == (1, 0, 2, 0, 1)


def test_single_factor_product_is_progression():
    assert product_poly(ProductSpec([(3, 3)])) == (1, 0, 0, 1, 0, 0, 1)
    assert progression_poly(3, 3) == IntPoly([1, 0, 0, 1, 0, 0, 1])


def test_product_poly_matches_dense_product():
    # oracle: the dense product of the progression polynomials
    rng = random.Random(3120)
    seeded = [
        ProductSpec((rng.randint(1, 12), rng.randint(2, 5)) for _ in range(rng.randint(1, 5)))
        for _ in range(600)
    ]
    specs = [*two_factor_specs(8, 4), *three_factor_specs(6), *seeded]
    for spec in specs:
        dense = poly_mul(*(progression_poly(m, n) for m, n in spec.factors))
        assert product_poly(spec) == dense.coeffs, spec
    assert len(specs) == 576 + 1728 + 600


def test_product_set():
    assert product_set(ProductSpec([(1, 2), (3, 2)])).elements == (0, 1, 3, 4)
    assert product_set(ProductSpec([(1, 2), (2, 2)])).elements == (0, 1, 2, 3)
    # (1 + x**2)**2 = 1 + 2x**2 + x**4 is not 0/1
    assert product_set(ProductSpec([(2, 2), (2, 2)])) is None
    assert product_set(ProductSpec([(1, 3), (1, 2)])) is None


def test_normalize_gcd_examples():
    assert normalize_gcd(ProductSpec([(2, 2), (4, 2)])).factors == ((1, 2), (2, 2))
    spec = ProductSpec([(1, 2), (3, 2)])
    assert normalize_gcd(spec) is spec
    assert normalize_gcd(ProductSpec([(6, 2), (10, 3)])).factors == ((3, 2), (5, 3))


def chain_holds(spec, order):
    # independent re-statement of the tower chain for a fixed ordering
    for k, i in enumerate(order):
        mi, ni = spec.factors[i]
        for j in order[k + 1:]:
            mj = spec.factors[j][0]
            if (mj // math.gcd(mi, mj)) % ni:
                return False
    return True


def test_tower_condition_examples():
    assert tower_condition(ProductSpec([(1, 2), (2, 2)])) == (0, 1)
    assert tower_condition(ProductSpec([(1, 2), (3, 2)])) is None
    assert tower_condition(ProductSpec([(1, 2), (2, 2), (4, 2)])) == (0, 1, 2)


def test_tower_finds_non_identity_ordering():
    assert tower_condition(ProductSpec([(2, 2), (1, 2)])) == (1, 0)
    assert tower_condition(ProductSpec([(4, 2), (2, 2), (1, 2)])) == (2, 1, 0)


def random_specs(count, max_factors, seed):
    # shuffled towers, half of them with one factor replaced at random,
    # so that both outcomes occur at every factor count
    rng = random.Random(seed)
    for _ in range(count):
        lengths = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, max_factors))]
        factors = [(math.prod(lengths[:k]), n) for k, n in enumerate(lengths)]
        if rng.random() < 0.5:
            factors[rng.randrange(len(factors))] = (rng.randint(1, 12), rng.choice((2, 3, 4)))
        rng.shuffle(factors)
        yield ProductSpec(factors)


def test_tower_orderings_are_valid_and_none_is_exhaustive():
    # oracle: the first valid ordering found by exhaustive permutation search
    fams = itertools.chain(
        all_specs(5, (2, 3), 2),
        all_specs(3, (2, 3), 3),
        all_specs(4, (2, 3), 4),
        random_specs(150, 7, seed=4),
    )
    for spec in fams:
        first = next(
            (perm for perm in itertools.permutations(range(len(spec)))
             if chain_holds(spec, perm)),
            None,
        )
        assert tower_condition(spec) == first, spec


def test_tower_and_witness_on_many_factors():
    rng = random.Random(7)
    lengths = [rng.choice((2, 3, 5)) for _ in range(200)]
    factors = [(math.prod(lengths[:k]), n) for k, n in enumerate(lengths)]
    rng.shuffle(factors)
    spec = ProductSpec(factors)
    order = tower_condition(spec)
    assert order is not None and sorted(order) == list(range(200))
    assert chain_holds(spec, order)
    assert keller_violation_witness(spec) is None

    spec = ProductSpec([(1, 2)] * 200)
    assert tower_condition(spec) is None
    witness = keller_violation_witness(spec)
    assert witness is not None and check_keller_violation(spec, witness)


def test_two_factor_condition_examples():
    assert two_factor_condition(ProductSpec([(1, 2), (2, 3)]))
    assert not two_factor_condition(ProductSpec([(1, 2), (3, 2)]))
    assert two_factor_condition(ProductSpec([(4, 3), (6, 2)]))
    with pytest.raises(ValueError):
        two_factor_condition(ProductSpec([(1, 2)]))


def test_two_factor_agrees_with_tower():
    # the report prints the peel's verdict as the two-factor condition;
    # oracle: the divisibility condition itself
    specs = list(all_specs(12, range(2, 7), 2))
    for spec in specs:
        assert two_factor_condition(spec) == (tower_condition(spec) is not None), spec
    assert len(specs) == 3600


def test_w_basis_examples():
    assert w_basis(ProductSpec([(1, 2), (3, 2)])) == [(3, -1)]
    assert w_basis(ProductSpec([(2, 2), (4, 2)])) == [(2, -1)]
    assert w_basis(ProductSpec([(1, 2), (2, 2), (4, 2)])) == [
        (2, -1, 0),
        (4, 0, -1),
        (0, 2, -1),
    ]


def test_w_basis_orthogonal_to_steps():
    for spec in all_specs(5, (2, 3), 3):
        for vec in w_basis(spec):
            assert sum(w * m for w, m in zip(vec, spec.steps)) == 0


def test_check_keller_violation_examples():
    spec = ProductSpec([(1, 2), (3, 2)])
    assert check_keller_violation(spec, (3, -1))
    assert not check_keller_violation(spec, (0, 0))
    assert not check_keller_violation(ProductSpec([(1, 2), (2, 2)]), (2, -1))
    # no coordinate a multiple of its length, but not orthogonal to the steps
    assert not check_keller_violation(spec, (1, 1))


def test_keller_witness_examples():
    assert keller_violation_witness(ProductSpec([(1, 2), (3, 2)])) == (3, -1)
    assert keller_violation_witness(ProductSpec([(1, 2), (2, 2)])) is None
    # tower holds for (2,3),(3,2): 3 divides 3/gcd(2,3)
    assert tower_condition(ProductSpec([(2, 3), (3, 2)])) == (0, 1)
    assert keller_violation_witness(ProductSpec([(2, 3), (3, 2)])) is None


def test_keller_witness_whenever_tower_fails():
    # broader than the 0/1 acceptance family on purpose
    fams = itertools.chain(
        all_specs(6, (2, 3, 4), 2),
        all_specs(4, (2, 3), 3),
        all_specs(3, (2, 3), 4),
    )
    failures = 0
    for spec in fams:
        if tower_condition(spec) is None:
            failures += 1
            witness = keller_violation_witness(spec)
            assert witness is not None
            assert check_keller_violation(spec, witness), spec
    assert failures > 100


def keller_ok(spec, vector):
    # independent restatement of a Keller violation witness
    if len(vector) != len(spec.factors) or not any(vector):
        return False
    if sum(w * m for w, (m, _) in zip(vector, spec.factors)) != 0:
        return False
    return not any(w != 0 and w % n == 0 for w, (_, n) in zip(vector, spec.factors))


def cycle_sum_witnesses(specs, monkeypatch):
    """(spec, witness) for the specs whose witness is the sum of pair vectors
    around the cycle, the case where no consecutive pair blocks both ways.

    The single-pair witness reads one pair vector; the cycle sum reads one
    per pair of the cycle, so at least three.
    """
    calls = []
    pair_vector = products._pair_vector
    monkeypatch.setattr(products, "_pair_vector",
                        lambda spec, i, j: calls.append((i, j)) or pair_vector(spec, i, j))
    found = []
    for spec in specs:
        calls.clear()
        witness = keller_violation_witness(spec)
        if len(calls) > 1:
            found.append((spec, witness))
    return found


def seeded_keller_specs(count, seed):
    # 3-6 factors, steps up to 40, lengths 2-7: about one spec in 500 takes
    # the cycle sum
    rng = random.Random(seed)
    for _ in range(count):
        yield ProductSpec((rng.randint(1, 40), rng.randint(2, 7))
                          for _ in range(rng.randint(3, 6)))


@pytest.mark.parametrize("spec, witness", [
    ("27:7,36:3,35:6", (-31, 32, -9)),
    ("24:7,10:3,28:5", (-2, 2, 1)),
])
def test_keller_cycle_sum_examples(spec, witness, monkeypatch):
    spec = ProductSpec.parse(spec)
    assert cycle_sum_witnesses([spec], monkeypatch) == [(spec, witness)]
    assert check_keller_violation(spec, witness) and keller_ok(spec, witness)
    assert not any(chain_holds(spec, perm) for perm in itertools.permutations(range(len(spec))))


def test_keller_cycle_sum_on_seeded_specs(monkeypatch):
    found = cycle_sum_witnesses(seeded_keller_specs(10_000, seed=1), monkeypatch)
    assert len(found) >= 10
    for spec, witness in found:
        assert check_keller_violation(spec, witness) and keller_ok(spec, witness), spec
        # the witness is not a single pair vector
        assert sum(1 for w in witness if w) >= 3, spec
        assert tower_condition(spec) is None
        assert not any(chain_holds(spec, perm)
                       for perm in itertools.permutations(range(len(spec)))), spec


def test_lattice_span_of_w_basis():
    for spec in all_specs(4, (2, 3), 3):
        basis = echelon(w_basis(spec))
        steps = spec.steps
        for w in itertools.product(range(-4, 5), repeat=3):
            if sum(a * b for a, b in zip(w, steps)) == 0:
                assert in_lattice(basis, w), (spec, w)
    # a vector outside the orthogonal lattice is rejected
    basis = echelon(w_basis(ProductSpec([(1, 2), (3, 2)])))
    assert not in_lattice(basis, (1, 0))


def test_zero_one_iff_no_small_lattice_collision():
    # the product has 0/1 coefficients exactly when no nonzero lattice
    # vector fits inside the box of factor lengths
    for spec in all_specs(4, (2, 3), 3):
        collision = False
        steps, lengths = spec.steps, spec.lengths
        for w in itertools.product(*[range(-(n - 1), n) for n in lengths]):
            if any(w) and sum(a * b for a, b in zip(w, steps)) == 0:
                collision = True
                break
        assert (product_set(spec) is not None) == (not collision), spec


def test_scaling_invariance():
    for spec in all_specs(3, (2, 3), 2):
        for k in (2, 3):
            scaled = ProductSpec((k * m, n) for m, n in spec.factors)
            g = math.gcd(*spec.steps)
            if g == 1:
                assert normalize_gcd(scaled).factors == spec.factors
            assert (tower_condition(scaled) is None) == (tower_condition(spec) is None)
            pset, sset = product_set(spec), product_set(scaled)
            assert (pset is None) == (sset is None)
            if pset is not None and sset is not None:
                assert check_t1(pset) == check_t1(sset)
                assert check_t2(pset) == check_t2(sset)
                assert (find_tiling(pset) is None) == (find_tiling(sset) is None)


def test_unverified_keller_witness_raises(monkeypatch):
    monkeypatch.setattr(products, "check_keller_violation", lambda spec, vec: False)
    with pytest.raises(CertificateError):
        keller_violation_witness(ProductSpec([(1, 2), (3, 2)]))
