"""Mergeable sketches for distributed column statistics.

These are the per-worker state the north rule calls for: each ``map_batches``
worker folds its batches into local sketch state, emits one serialized
partial per batch (or per block), and the driver (or a tiny reduce stage)
merges partials — the classic partial/combine pattern that avoids an
all-to-all shuffle for distinct counts and quantiles.

* :class:`HyperLogLog` — distinct-count sketch (Flajolet et al., HLL with the
  standard small/large-range corrections), 2^p byte registers, elementwise-max
  merge.
* :class:`TDigest` — quantile sketch in the buffered-cluster style of
  Dunning's t-digest: incoming batches are pre-clustered vectorized
  (sort + equal-weight chunking), then centroid lists are merged under the
  k1 size bound, keeping memory O(compression).

No external dependencies — numpy + hashlib only (the environment has no
datasketches library).
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np

# -- 64-bit hashing ----------------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


_SM_GOLDEN = np.int64(-7046029254386353131)
_SM_C1 = np.int64(-4658895280553007687)
_SM_C2 = np.int64(-7723592293110705685)


def _lshr(v: np.ndarray, k: int) -> np.ndarray:
    """Logical right shift on int64 (arithmetic shift + mask)."""
    return (v >> k) & np.int64((1 << (64 - k)) - 1)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a well-mixed 64-bit hash for
    integer keys (public-domain constant set).

    Bit-identical to the canonical uint64 formulation but computed in
    int64 two's-complement wraparound: this numpy build's uint64
    multiply/shift loops are ~6-12x slower than the SIMD int64 ones."""
    x = np.asarray(x)
    if x.dtype != np.int64:
        x = x.astype(np.uint64, copy=False).view(np.int64)
    with np.errstate(over='ignore'):
        z = x + _SM_GOLDEN
        z = (z ^ _lshr(z, 30)) * _SM_C1
        z = (z ^ _lshr(z, 27)) * _SM_C2
        z = z ^ _lshr(z, 31)
    return z.view(np.uint64)


def _hash_bytes_array(values) -> np.ndarray:
    """64-bit stable hashes for a python sequence of str/bytes/None."""
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        if v is None:
            out[i] = np.uint64(0)
            continue
        if isinstance(v, str):
            v = v.encode('utf-8', 'surrogatepass')
        elif not isinstance(v, bytes):
            v = repr(v).encode('utf-8')
        out[i] = np.frombuffer(
            hashlib.blake2b(v, digest_size=8).digest(), dtype=np.uint64)[0]
    return out


def hash64_array(arr) -> np.ndarray:
    """Stable 64-bit hashes for a pyarrow array (nulls excluded by caller or
    hashed as 0).  Numeric types hash vectorized via splitmix64; strings hash
    their *dictionary* (unique values) so per-row cost is amortized."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = arr.type
    if pa.types.is_integer(t):
        vals = np.asarray(arr.cast(pa.int64()).fill_null(
            np.iinfo(np.int64).min)).astype(np.int64)
        return _splitmix64(vals.view(np.uint64))
    if pa.types.is_floating(t):
        vals = np.asarray(arr.cast(pa.float64()).fill_null(np.nan),
                          dtype=np.float64)
        return _splitmix64(vals.view(np.uint64))
    if pa.types.is_boolean(t):
        vals = np.asarray(arr.cast(pa.int64()).fill_null(-1)).astype(np.int64)
        return _splitmix64(vals.view(np.uint64))
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t):
        vals = np.asarray(arr.cast(pa.int64()).fill_null(
            np.iinfo(np.int64).min)).astype(np.int64)
        return _splitmix64(vals.view(np.uint64))
    # Strings / binary: hash unique dictionary values once, then gather.
    dic = arr.dictionary_encode()
    uniq_hashes = _hash_bytes_array(dic.dictionary.to_pylist())
    codes = np.asarray(dic.indices.fill_null(-1)).astype(np.int64)
    out = np.zeros(len(arr), dtype=np.uint64)
    present = codes >= 0
    out[present] = uniq_hashes[codes[present]]
    return out


# -- Bloom filter ------------------------------------------------------------


class BloomFilter:
    """Bit-array membership sketch for compact key-set broadcast.

    ``k`` probes derived from one 64-bit hash by double hashing.  With the
    default 16 bits/key the false-positive rate is ~0.046% — for an
    anti-join (referential check) a false positive means a missed orphan,
    so the rate bounds the miss fraction and is reported by the caller."""

    __slots__ = ('m', 'k', 'bits')

    def __init__(self, n_keys: int, bits_per_key: int = 16):
        self.m = max(64, int(n_keys * bits_per_key))
        self.k = max(1, int(round(bits_per_key * 0.6931)))
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        h1 = hashes
        h2 = _splitmix64(hashes)
        out = np.empty((self.k, len(hashes)), dtype=np.int64)
        with np.errstate(over='ignore'):
            for i in range(self.k):
                out[i] = ((h1 + np.uint64(i) * h2) % np.uint64(self.m)) \
                    .astype(np.int64)
        return out

    def add_hashes(self, hashes: np.ndarray):
        pos = self._positions(hashes).ravel()
        np.bitwise_or.at(self.bits, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        pos = self._positions(hashes)
        word = self.bits[pos >> 6]
        hit = (word >> (pos & 63).astype(np.uint64)) & np.uint64(1)
        return hit.all(axis=0).astype(bool)

    @property
    def fpr(self) -> float:
        load = float((np.unpackbits(self.bits.view(np.uint8)) != 0).mean())
        return load ** self.k

    def serialize(self) -> bytes:
        return pickle.dumps((self.m, self.k, self.bits))

    @classmethod
    def deserialize(cls, data: bytes) -> 'BloomFilter':
        out = cls.__new__(cls)
        out.m, out.k, out.bits = pickle.loads(data)
        return out


# -- HyperLogLog -------------------------------------------------------------


class HyperLogLog:
    """Distinct-count sketch; merge = elementwise register max."""

    __slots__ = ('p', 'm', 'registers')

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, hashes: np.ndarray):
        if len(hashes) == 0:
            return
        p = np.uint64(self.p)
        idx = (hashes >> (np.uint64(64) - p)).astype(np.int64)
        w = (hashes << p) & _MASK64
        # rho = leading zeros of w within 64-p bits, + 1.  bit_length is
        # computed with integer shifts (6 vectorized passes): float log2
        # rounds UP near power-of-two boundaries above 2^53, which would
        # bias rho low for large w.
        nz = w > 0
        v = w[nz].copy()
        bits_nz = np.zeros(len(v), dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            big = v >= (np.uint64(1) << np.uint64(shift))
            bits_nz[big] += shift
            v[big] >>= np.uint64(shift)
        rho = np.empty(len(w), dtype=np.uint8)
        rho[nz] = np.minimum(63 - bits_nz + 1, 64 - self.p + 1).astype(np.uint8)
        rho[~nz] = np.uint8(64 - self.p + 1)
        np.maximum.at(self.registers, idx, rho)

    def merge(self, other: 'HyperLogLog'):
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * np.log(m / zeros)
        elif e > (1 << 64) / 30.0:
            e = -(1 << 64) * np.log(1 - e / (1 << 64))
        return float(e)

    def serialize(self) -> bytes:
        return pickle.dumps((self.p, self.registers))

    @classmethod
    def deserialize(cls, data: bytes) -> 'HyperLogLog':
        p, registers = pickle.loads(data)
        out = cls(p)
        out.registers = registers.astype(np.uint8, copy=True)
        return out


# -- t-digest ----------------------------------------------------------------


class TDigest:
    """Quantile sketch with buffered vectorized clustering.

    ``add`` pre-clusters the incoming batch (sort + equal-weight chunks of
    ~n/compression) entirely in numpy, then merges centroid lists under the
    k1 scale-function bound — per-batch cost is O(n log n) vectorized, state
    stays O(compression)."""

    __slots__ = ('compression', 'means', 'weights', 'n', '_min', '_max')

    def __init__(self, compression: int = 200):
        self.compression = compression
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self.n = 0.0
        self._min = np.inf
        self._max = -np.inf

    def add(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        values = np.sort(values)
        self._min = min(self._min, float(values[0]))
        self._max = max(self._max, float(values[-1]))
        # Pre-cluster the batch into ≤ 2*compression equal-count chunks.
        k = min(len(values), 2 * self.compression)
        splits = np.array_split(values, k)
        means = np.array([c.mean() for c in splits])
        weights = np.array([len(c) for c in splits], dtype=np.float64)
        self._merge_centroids(means, weights)

    def _merge_centroids(self, means, weights):
        all_means = np.concatenate([self.means, means])
        all_weights = np.concatenate([self.weights, weights])
        order = np.argsort(all_means, kind='mergesort')
        all_means, all_weights = all_means[order], all_weights[order]
        total = all_weights.sum()
        self.n = total
        # Greedy k1-bound compression pass.
        out_means, out_weights = [], []
        cur_m, cur_w = all_means[0], all_weights[0]
        cum = 0.0
        d = self.compression
        for i in range(1, len(all_means)):
            q = (cum + cur_w + all_weights[i] / 2) / max(total, 1.0)
            limit = 4 * total * q * (1 - q) / d
            if cur_w + all_weights[i] <= max(limit, 1.0):
                cur_m = (cur_m * cur_w + all_means[i] * all_weights[i]) \
                    / (cur_w + all_weights[i])
                cur_w += all_weights[i]
            else:
                out_means.append(cur_m)
                out_weights.append(cur_w)
                cum += cur_w
                cur_m, cur_w = all_means[i], all_weights[i]
        out_means.append(cur_m)
        out_weights.append(cur_w)
        self.means = np.asarray(out_means)
        self.weights = np.asarray(out_weights)

    def merge(self, other: 'TDigest'):
        if other.n:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            self._merge_centroids(other.means, other.weights)
        return self

    def quantile(self, q: float) -> float:
        if self.n == 0:
            return float('nan')
        if q <= 0:
            return self._min
        if q >= 1:
            return self._max
        target = q * self.n
        cum = np.cumsum(self.weights) - self.weights / 2
        idx = np.searchsorted(cum, target)
        if idx == 0:
            return float(self.means[0])
        if idx >= len(self.means):
            return float(self.means[-1])
        lo, hi = cum[idx - 1], cum[idx]
        frac = (target - lo) / max(hi - lo, 1e-12)
        return float(self.means[idx - 1]
                     + frac * (self.means[idx] - self.means[idx - 1]))

    def serialize(self) -> bytes:
        return pickle.dumps((self.compression, self.means, self.weights,
                             self.n, self._min, self._max))

    @classmethod
    def deserialize(cls, data: bytes) -> 'TDigest':
        compression, means, weights, n, mn, mx = pickle.loads(data)
        out = cls(compression)
        out.means, out.weights, out.n = means, weights, n
        out._min, out._max = mn, mx
        return out
