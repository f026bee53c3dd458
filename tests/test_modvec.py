"""The ModVec constructor is the one fold that builds every vector.

Seeded pair lists over a small key pool, with zero coefficients, repeats,
exact cancellations and re-adds after a cancellation, are compared with a
reference sum written another way: each key's total, ordered by the pair
that last took its running sum away from zero.
"""

import random
from fractions import Fraction as F
from itertools import chain

import pytest

from gtmodules.action import ModVec
from gtmodules.tableau import Kind, Shift, TabKey

POOL = [
    TabKey(Shift(3, ((a,), (b, c))), kind)
    for a, b, c in ((0, 0, 0), (1, 0, 0), (0, 1, -1))
    for kind in (Kind.REGULAR, Kind.DERIVATIVE)
]
# small values whose sums often cancel exactly
VALUES = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-2, 3), F(3)]


def reference(pairs) -> list:
    running, entered = {}, {}
    for position, (key, coeff) in enumerate(pairs):
        before = running.get(key, 0)
        running[key] = before + coeff
        if before == 0 and running[key] != 0:
            entered[key] = position
    live = sorted((key for key, total in running.items() if total != 0), key=entered.get)
    return [(key, running[key]) for key in live]


def random_pairs(seed: int) -> list:
    rng = random.Random(seed)
    return [(rng.choice(POOL), rng.choice(VALUES)) for _ in range(rng.randint(0, 40))]


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_fold_matches_reference_in_values_and_order(seed):
    pairs = random_pairs(seed)
    vec = ModVec(iter(pairs))
    assert list(vec.items()) == reference(pairs)
    assert all(coeff for _key, coeff in vec.items())


def test_seeded_pairs_reach_every_case():
    zeros = cancellations = readds = 0
    for seed in SEEDS:
        running, cancelled = {}, set()
        for key, coeff in random_pairs(seed):
            zeros += coeff == 0
            before = running.get(key, 0)
            running[key] = before + coeff
            if before and not running[key]:
                cancellations += 1
                cancelled.add(key)
            elif not before and running[key] and key in cancelled:
                readds += 1
    assert min(zeros, cancellations, readds) > 10, (zeros, cancellations, readds)


def test_cancelled_key_goes_to_the_end_when_seen_again():
    a, b, c = POOL[:3]
    vec = ModVec([(a, F(1)), (b, F(2)), (c, F(0)), (a, F(-1)), (a, F(3))])
    assert list(vec.items()) == [(b, F(2)), (a, F(3))]


def test_first_seen_key_keeps_the_coefficient_object():
    coeff = F(7, 3)
    vec = ModVec([(POOL[0], coeff), (POOL[1], F(1))])
    assert vec.coeff(POOL[0]) is coeff


def test_dict_is_read_as_key_to_coefficient():
    # a dict goes in through .items(): a TabKey is a 2-tuple, so the dict
    # itself would be read as (shift, kind) pairs without an error
    terms = {POOL[0]: F(1, 2), POOL[1]: F(-3)}
    assert list(ModVec(terms.items()).items()) == list(terms.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_add_sub_and_scale_match_reference(seed):
    first, second = ModVec(random_pairs(seed)), ModVec(random_pairs(seed + 1000))
    negated = [(key, -coeff) for key, coeff in second.items()]
    assert list((first + second).items()) == reference(list(chain(first.items(), second.items())))
    assert list((first - second).items()) == reference(list(chain(first.items(), negated)))
    c = F(-5, 4)
    assert list(first.scale(c).items()) == reference([(key, c * x) for key, x in first.items()])
    assert first.scale(0).is_zero
    assert (first - first).is_zero
