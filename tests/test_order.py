import itertools

import numpy as np
import pytest

from isomech import Ranking, ValidationError, project_descending
from isomech.order import (
    is_upward_swap,
    majorizes,
    majorizes_natural_order,
    upward_swap_chain,
    weakly_majorizes,
)

from helpers import majorizing_pair, natural_order_pair


def test_majorizes_examples():
    assert majorizes([2, 0], [1, 1])
    assert not majorizes([1, 1], [2, 0])
    assert majorizes([3, 1, 2], [3, 1, 2])


def test_majorizes_requires_equal_totals():
    assert not majorizes([5, 0], [1, 1])


def test_natural_order_examples():
    assert not majorizes_natural_order([0, 2], [1, 1])
    assert majorizes_natural_order([1, 1], [0, 2])
    v = np.sort(np.random.default_rng(0).normal(size=6))[::-1]
    assert majorizes_natural_order(v, v)


def test_weak_examples():
    assert weakly_majorizes([3, 1], [1, 1])
    assert weakly_majorizes([2, 0], [1, 1])
    assert not weakly_majorizes([0, 0], [1, 0])


def test_integer_inputs_compare_exactly():
    assert majorizes(np.array([2, 0]), np.array([1, 1]))
    assert not majorizes(np.array([2, 0]), np.array([1, 0]))


def test_length_mismatch_raises():
    with pytest.raises(ValidationError):
        majorizes([1, 2], [1, 2, 3])
    with pytest.raises(ValidationError):
        weakly_majorizes([1], [])


def test_majorization_order_on_random_mixtures():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a, b = majorizing_pair(rng, int(rng.integers(2, 9)))
        assert majorizes(a, b)
        assert weakly_majorizes(a, b)


def test_hardy_littlewood_polya_direction():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        a, b = majorizing_pair(rng, int(rng.integers(2, 8)))
        thresholds = rng.normal(0, 3, size=5)
        tests = [lambda v: v, lambda v: v**2]
        tests += [lambda v, t=t: np.maximum(v - t, 0.0) for t in thresholds]
        for h in tests:
            assert h(a).sum() >= h(b).sum() - 1e-9


def test_hardy_littlewood_polya_weak_variant():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a, b = majorizing_pair(rng, int(rng.integers(2, 8)))
        a = a + rng.uniform(0, 1, size=a.size)  # lift: weak majorization only
        assert weakly_majorizes(a, b)
        thresholds = rng.normal(0, 3, size=5)
        tests = [lambda v: v]  # nondecreasing convex
        tests += [lambda v, t=t: np.maximum(v - t, 0.0) for t in thresholds]
        for h in tests:
            assert h(a).sum() >= h(b).sum() - 1e-9


def test_projection_preserves_natural_order_majorization():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        a, b = natural_order_pair(rng, int(rng.integers(2, 10)))
        assert majorizes_natural_order(a, b)
        pa = project_descending(a).mu_hat
        pb = project_descending(b).mu_hat
        assert majorizes(pa, pb)


def test_upward_swap_examples():
    assert is_upward_swap([1, 2], [2, 1])
    assert not is_upward_swap([2, 1], [1, 2])
    assert not is_upward_swap([1, 2], [1, 2])
    assert is_upward_swap([1, 3, 2, 4], [1, 4, 2, 3])
    with pytest.raises(ValidationError):
        is_upward_swap([1, 1], [1, 2])


def test_chain_trivial_and_single_swap():
    chain = upward_swap_chain(Ranking([1, 2, 3]), Ranking([1, 2, 3]))
    assert len(chain) == 1
    chain = upward_swap_chain(Ranking([1, 2, 3]), Ranking([2, 1, 3]))
    assert [r.perm for r in chain] == [(1, 2, 3), (2, 1, 3)]


def test_chain_sound_for_all_small_permutations():
    for n in range(1, 7):
        identity = Ranking(range(1, n + 1))
        for perm in itertools.permutations(range(1, n + 1)):
            chain = upward_swap_chain(identity, Ranking(perm))
            assert chain[0].perm == identity.perm
            assert chain[-1].perm == perm
            assert len(chain) <= 1 + n * (n - 1) // 2
            for left, right in zip(chain, chain[1:]):
                assert is_upward_swap(left, right)


def test_chain_relabels_for_general_start():
    rng = np.random.default_rng(25)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        start = Ranking(rng.permutation(n) + 1)
        target = Ranking(rng.permutation(n) + 1)
        chain = upward_swap_chain(start, target)
        assert chain[0].perm == start.perm and chain[-1].perm == target.perm
        rank_of = {item: pos + 1 for pos, item in enumerate(start.perm)}
        for left, right in zip(chain, chain[1:]):
            relabeled_left = Ranking(rank_of[i] for i in left.perm)
            relabeled_right = Ranking(rank_of[i] for i in right.perm)
            assert is_upward_swap(relabeled_left, relabeled_right)


def test_chain_type():
    chain = upward_swap_chain(Ranking([2, 1]), Ranking([1, 2]))
    assert isinstance(chain, tuple)
    assert all(isinstance(r, Ranking) for r in chain)
