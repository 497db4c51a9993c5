"""Sketch accuracy + mergeability (driver-side, no Ray needed)."""

import numpy as np
import pyarrow as pa
import pytest

from python_fastjsonschema_ray.state.sketches import (
    HyperLogLog, TDigest, hash64_array)


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(42)
    a = rng.integers(0, 50_000, 100_000)
    b = rng.integers(25_000, 75_000, 100_000)
    h1, h2 = HyperLogLog(), HyperLogLog()
    h1.add_hashes(hash64_array(pa.array(a, type=pa.int64())))
    h2.add_hashes(hash64_array(pa.array(b, type=pa.int64())))
    true_1 = len(np.unique(a))
    est_1 = h1.estimate()
    assert abs(est_1 - true_1) / true_1 < 0.03
    merged = h1.merge(h2)
    true_u = len(np.unique(np.concatenate([a, b])))
    assert abs(merged.estimate() - true_u) / true_u < 0.03


def test_hll_strings():
    values = pa.array(['user-{}'.format(i % 1000) for i in range(10_000)])
    h = HyperLogLog()
    h.add_hashes(hash64_array(values))
    assert abs(h.estimate() - 1000) / 1000 < 0.05


def test_hll_serialize_roundtrip():
    h = HyperLogLog()
    h.add_hashes(hash64_array(pa.array(list(range(1000)), type=pa.int64())))
    h2 = HyperLogLog.deserialize(h.serialize())
    assert h2.estimate() == h.estimate()


def test_tdigest_quantiles():
    rng = np.random.default_rng(7)
    data = rng.normal(100, 15, 200_000)
    td = TDigest()
    for chunk in np.array_split(data, 20):
        td.add(chunk)
    for q in (0.1, 0.5, 0.9, 0.99):
        true = np.quantile(data, q)
        est = td.quantile(q)
        assert abs(est - true) < 1.0, (q, true, est)


def test_tdigest_merge():
    rng = np.random.default_rng(11)
    data = rng.exponential(10, 100_000)
    t1, t2 = TDigest(), TDigest()
    t1.add(data[:50_000])
    t2.add(data[50_000:])
    t1.merge(t2)
    for q in (0.5, 0.9):
        assert abs(t1.quantile(q) - np.quantile(data, q)) \
            < 0.05 * max(np.quantile(data, q), 1)


def test_tdigest_serialize_roundtrip():
    td = TDigest()
    td.add(np.arange(1000.0))
    td2 = TDigest.deserialize(td.serialize())
    assert td2.quantile(0.5) == td.quantile(0.5)


def test_hash64_stability():
    arr = pa.array(['a', 'b', None, 'a'])
    h = hash64_array(arr)
    assert h[0] == h[3]
    assert h[0] != h[1]
    # Stable across calls/processes (blake2b, not PYTHONHASHSEED).
    assert list(hash64_array(pa.array(['a']))) == [h[0]]


# -- equivalence with the per-element formulations the kernels replaced ------


def _shift_loop_registers(hashes, p):
    """HLL registers from the integer-shift bit length (the old kernel)."""
    registers = np.zeros(1 << p, dtype=np.uint8)
    up = np.uint64(p)
    idx = (hashes >> (np.uint64(64) - up)).astype(np.int64)
    w = (hashes << up) & np.uint64(0xFFFFFFFFFFFFFFFF)
    nz = w > 0
    v = w[nz].copy()
    bits_nz = np.zeros(len(v), dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        bits_nz[big] += shift
        v[big] >>= np.uint64(shift)
    rho = np.empty(len(w), dtype=np.uint8)
    rho[nz] = np.minimum(63 - bits_nz + 1, 64 - p + 1).astype(np.uint8)
    rho[~nz] = np.uint8(64 - p + 1)
    np.maximum.at(registers, idx, rho)
    return registers


def _adversarial_hashes():
    ones = (1 << 64) - 1
    words = [0, 1, ones, ones - 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
             2 ** 63 + 2 ** 10 + 1, (1 << 63) | 1]
    words += [1 << k for k in range(64)]
    words += [(1 << k) - 1 for k in range(1, 65)]
    words += [ones ^ (1 << k) for k in range(64)]
    # Every bucket prefix combined with every bit length of the rest.
    words += [(top << 58) | (1 << k) for top in (0, 1, 31, 63)
              for k in range(58)]
    rng = np.random.default_rng(3)
    big = rng.integers(2 ** 53, 2 ** 63, 2000, dtype=np.uint64) \
        * np.uint64(2) + np.uint64(1)
    return np.concatenate([np.array(words, dtype=np.uint64), big,
                           rng.integers(0, 2 ** 63, 5000, dtype=np.uint64)])


@pytest.mark.parametrize('p', (4, 14, 16))
def test_hll_registers_equal_the_shift_loop(p):
    hashes = _adversarial_hashes()
    h = HyperLogLog(p)
    h.add_hashes(hashes)
    assert np.array_equal(h.registers, _shift_loop_registers(hashes, p))
    for word in hashes[:300]:               # one hash at a time, too
        one = HyperLogLog(p)
        one.add_hashes(np.array([word], dtype=np.uint64))
        assert np.array_equal(one.registers,
                              _shift_loop_registers(np.array([word]), p))


def _array_split_centroids(values, compression):
    """The pre-clustered (means, weights) of the old ``TDigest.add``."""
    values = np.sort(values[~np.isnan(values)])
    splits = np.array_split(values, min(len(values), 2 * compression))
    return (np.array([c.mean() for c in splits]),
            np.array([len(c) for c in splits], dtype=np.float64))


class _Capture(TDigest):
    """Records the pre-clustered centroids ``add`` hands to the merge."""

    __slots__ = ('seen',)

    def _merge_centroids(self, means, weights):
        self.seen.append((means, weights))


def _captured_centroids(values, compression):
    td = _Capture(compression)
    td.seen = []
    td.add(values)
    return td.seen


@pytest.mark.parametrize('values', [
    np.arange(7, dtype=np.float64),                 # shorter than 2*compression
    np.linspace(-3, 1e6, 399),                      # one short of 400 chunks
    np.random.default_rng(5).normal(50, 20, 4_001),   # 4001 % 400 != 0
    np.random.default_rng(6).exponential(3, 65_536),
    np.round(np.random.default_rng(8).uniform(0, 0.1, 65_531), 2),
    np.full(1_000, 0.07),                           # constant
    np.sort(np.random.default_rng(9).normal(0, 1e9, 9_999))[::-1],  # descending
    np.concatenate([[np.nan] * 10, np.arange(1_234.0), [np.nan]]),
], ids=['short', 'n399', 'uneven', 'exp', 'cents', 'constant', 'descending',
        'with_nan'])
@pytest.mark.parametrize('compression', (200, 7))
def test_tdigest_centroids_equal_array_split_means(values, compression):
    (means, weights), = _captured_centroids(values, compression)
    want_means, want_weights = _array_split_centroids(values, compression)
    assert np.array_equal(means.view(np.int64), want_means.view(np.int64))
    assert np.array_equal(weights, want_weights)


def test_tdigest_all_nan_adds_nothing():
    assert _captured_centroids(np.full(50, np.nan), 200) == []
    td = TDigest()
    td.add(np.full(50, np.nan))
    assert td.n == 0 and np.isnan(td.quantile(0.5))
