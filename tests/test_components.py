"""Connected components (transitive near-dup clusters): driver and
distributed paths vs exact expectations, and transitive dedup_minhash."""

import numpy as np
import pyarrow as pa
import pytest


EDGES = [(1, 2), (2, 3), (3, 4), (10, 11), (20, 21), (21, 22), (20, 22),
         (22, 1), (30, 31)]
EXPECTED = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10,
            20: 1, 21: 1, 22: 1, 30: 30, 31: 30}


def _pairs_ds(edges, blocks=3):
    import ray.data
    t = pa.table({
        'id_a': pa.array([a for a, b in edges], type=pa.int64()),
        'id_b': pa.array([b for a, b in edges], type=pa.int64())})
    return ray.data.from_arrow(t).repartition(blocks)


def test_connected_components_driver(ray_session):
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    out = connected_components(_pairs_ds(EDGES)).to_pandas()
    assert dict(zip(out['id'], out['component_id'])) == EXPECTED


def test_connected_components_distributed(ray_session, monkeypatch):
    from python_fastjsonschema_ray.stages import exchange
    from python_fastjsonschema_ray.stages.components import (
        connected_components_distributed)
    monkeypatch.setattr(exchange, 'default_buckets', lambda: 8)
    out = connected_components_distributed(_pairs_ds(EDGES)).to_pandas()
    assert dict(zip(out['id'], out['component_id'])) == EXPECTED


def test_connected_components_long_chain_driver(ray_session):
    """A 200-node chain needs many propagation hops — exercises pointer
    jumping in the numpy fold."""
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    chain = [(i, i + 1) for i in range(100, 300)]
    exp = {i: 100 for i in range(100, 301)}
    out = connected_components(_pairs_ds(chain, blocks=5)).to_pandas()
    assert dict(zip(out['id'], out['component_id'])) == exp


def test_connected_components_chain_distributed(ray_session, monkeypatch):
    """A 17-node chain converges in ~log2(d) distributed rounds thanks to
    the pointer-jump step (each Ray round costs seconds of fixed shuffle
    overhead locally, so the test chain stays short)."""
    from python_fastjsonschema_ray.stages import exchange
    from python_fastjsonschema_ray.stages.components import (
        connected_components_distributed)
    monkeypatch.setattr(exchange, 'default_buckets', lambda: 8)
    chain = [(i, i + 1) for i in range(100, 116)]
    exp = {i: 100 for i in range(100, 117)}
    out2 = connected_components_distributed(
        _pairs_ds(chain, blocks=5)).to_pandas()
    assert dict(zip(out2['id'], out2['component_id'])) == exp


def test_connected_components_empty(ray_session):
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    out = connected_components(_pairs_ds([], blocks=1))
    assert out.count() == 0
    # Schema survives on the Dataset (empty Ray->pandas conversions drop
    # columns — a known Ray quirk handled by the driver's helper).
    assert sorted(out.schema().names) == ['component_id', 'id']


def test_connected_components_driver_limit(ray_session):
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    with pytest.raises(ValueError, match='driver_pair_limit'):
        connected_components(_pairs_ds(EDGES), driver_pair_limit=2)


def test_connected_components_string_ids(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    t = pa.table({'id_a': ['b', 'c', 'x'], 'id_b': ['a', 'b', 'y']})
    out = connected_components(ray.data.from_arrow(t)).to_pandas()
    assert dict(zip(out['id'], out['component_id'])) == {
        'a': 'a', 'b': 'a', 'c': 'a', 'x': 'x', 'y': 'x'}


def test_dedup_minhash_transitive(ray_session):
    """Planted chain a~b, b~c where a and c are NOT pairwise similar:
    pairwise policy keeps a and c, transitive policy keeps only a."""
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import dedup_minhash
    from python_fastjsonschema_ray.stages.dedup import _shingle_hashes
    base = ('the quick brown fox jumps over the lazy dog and then runs '
            'far away into the deep green forest before nightfall ')
    words = base.split() * 4       # ~80 words

    # Each mutation touches every 20th word (sparse, so most 5-shingles
    # survive): a~b and b~c stay above threshold, a~c falls below.
    def mutate(ws, start):
        out = list(ws)
        for i in range(start, len(out), 20):
            out[i] = out[i] + 'zz'
        return out

    a = ' '.join(words)
    b = ' '.join(mutate(words, 0))
    c = ' '.join(mutate(mutate(words, 0), 10))

    def jac(x, y):
        sx = _shingle_hashes(x, 5)
        sy = _shingle_hashes(y, 5)
        inter = np.intersect1d(sx, sy, assume_unique=True).size
        return inter / (sx.size + sy.size - inter)

    # Measured exact jaccards: j(a,b)=0.790, j(b,c)=0.868, j(a,c)=0.686
    # (deterministic); 0.72 separates the chain edges from the closure.
    thr = 0.72
    assert jac(a, b) >= thr and jac(b, c) >= thr and jac(a, c) < thr

    docs = pa.table({
        'doc_id': pa.array([1, 2, 3, 50], type=pa.int64()),
        'text': [a, b, c,
                 'completely different text about nothing at all here'],
    })
    ds = ray.data.from_arrow(docs)
    # bands=32 (r=4) for recall at similarity ~0.6 (the documented
    # recall-sensitive-small-corpus setting).
    kept_t = sorted(dedup_minhash(
        ds, 'doc_id', 'text', transitive=True,
        threshold=thr, bands=32).to_pandas()['doc_id'])
    kept_p = sorted(dedup_minhash(
        ds, 'doc_id', 'text',
        threshold=thr, bands=32).to_pandas()['doc_id'])
    # Transitive policy collapses the whole chain to doc 1; pairwise
    # keeps c too when (a, c) is not itself a pair.
    assert kept_t == [1, 50]
    assert set(kept_t) <= set(kept_p)
