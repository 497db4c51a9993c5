"""Degenerate-input robustness sweeps: every driver query over (a)
zero-row tables, (b) tables whose payload columns are ALL NULL, and
(c) tables whose float columns carry interleaved NaN values.

At 100 TB scale all three are routine — shards whose filters drop
every row, shards where the text / embedding / payload column is null,
and numeric columns with NaN —
so every operator must tolerate them: return an empty (or
degenerate-aggregate) result, never crash with a KeyError /
AttributeError deep in a stage, and NEVER silently misalign (a
partially-null embedding column through ``flatten().reshape`` would
pair row i's id with row j's vector — the helpers now refuse nulls
and the operators filter them first).

Two estimator fits are the documented exceptions: fitting k-means or
PCA on zero (non-null) rows is a genuine user error, and they raise a
CLEAN, message-bearing ValueError instead of an internal crash.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SRC = '/root/testdata/sf0.001'
TABLES = ('region', 'nation', 'customer', 'supplier', 'part', 'orders',
          'lineitem', 'events', 'documents', 'embeddings')

# Key / timestamp columns stay populated in the all-null-payload
# fixture (a corpus with null ids is not a recoverable input; null
# payloads are).
KEY_COLUMNS = {
    'doc_id', 'vec_id', 'event_id', 'user_id', 'ts', 'c_custkey',
    'o_orderkey', 'o_custkey', 'o_orderdate', 'l_orderkey', 'l_partkey',
    'l_suppkey', 'l_linenumber', 'l_shipdate', 'n_nationkey',
    'n_regionkey', 'r_regionkey', 'p_partkey', 's_suppkey', 's_nationkey',
}

# Queries whose semantics REQUIRE rows (estimator fits): they must
# raise a clean ValueError whose message names the constraint.
CLEAN_VALUEERROR = {
    'kmeans_embeddings': 'at least one row',
    'pca_embeddings': 'at least 2 rows',
}


@pytest.fixture(scope='module')
def empty_sf(tmp_path_factory):
    root = tmp_path_factory.mktemp('sf_empty')
    for t in TABLES:
        schema = pq.read_schema(
            os.path.join(SRC, t + '.parquet')).remove_metadata()
        pq.write_table(schema.empty_table(),
                       str(root / (t + '.parquet')))
    return str(root)


@pytest.fixture(scope='module')
def null_payload_sf(tmp_path_factory):
    root = tmp_path_factory.mktemp('sf_null')
    for t in TABLES:
        tab = pq.read_table(os.path.join(SRC, t + '.parquet')).slice(0, 50)
        cols = [tab.column(f.name) if f.name in KEY_COLUMNS
                else pa.nulls(tab.num_rows, type=f.type)
                for f in tab.schema]
        out = pa.table(dict(zip(tab.schema.names, cols))) \
            .replace_schema_metadata(None)
        pq.write_table(out, str(root / (t + '.parquet')))
    return str(root)


def _sweep(mod, sf_dir, expect_estimator_errors=True):
    clean_errors = CLEAN_VALUEERROR if expect_estimator_errors else {}
    failures = []
    for name, fn in sorted(mod.queries().items()):
        try:
            result = fn(sf_dir)
            # Materializing proves the lazy plan executes end-to-end.
            # Row counts are NOT policed: aggregates legitimately emit
            # degenerate all-null rows, schema inference emits one row
            # per column, and the multimodal queries synthesize their
            # own media inputs independent of the sf tables.
            df = result.to_pandas() if hasattr(result, 'to_pandas') \
                else result
            assert df is not None, name
            if name in clean_errors:
                failures.append((name, 'expected ValueError, got result'))
        except ValueError as exc:
            if name not in clean_errors:
                failures.append((name, 'ValueError', str(exc)[:200]))
            elif clean_errors[name] not in str(exc):
                failures.append((name, 'wrong message', str(exc)[:200]))
        except Exception as exc:  # noqa: BLE001 — report every crash
            failures.append((name, type(exc).__name__, str(exc)[:200]))
    assert not failures, '\n'.join(repr(f) for f in failures)


@pytest.fixture(scope='module')
def nan_sf(tmp_path_factory):
    """Every 5th value of every float column is NaN (keys untouched) —
    NaN is a VALUE to Arrow, not a null, and must be skipped like one
    by the aggregate/quantile folds and reported as a clean violation
    by numeric keywords (the reference crashes on nan multipleOf —
    pinned in test_reference_divergences.py)."""
    import numpy as np
    root = tmp_path_factory.mktemp('sf_nan')
    for t in TABLES:
        tab = pq.read_table(os.path.join(SRC, t + '.parquet'))
        cols = {}
        for f in tab.schema:
            col = tab.column(f.name)
            if pa.types.is_floating(f.type):
                v = np.array(col.to_pandas(), dtype=np.float64, copy=True)
                v[::5] = np.nan
                col = pa.chunked_array([pa.array(v, type=f.type,
                                                 from_pandas=False)])
            cols[f.name] = col
        pq.write_table(pa.table(cols).replace_schema_metadata(None),
                       str(root / (t + '.parquet')))
    return str(root)


def test_every_query_tolerates_empty_tables(ray_session, empty_sf):
    import __ray_entry__ as mod
    _sweep(mod, empty_sf)


def test_every_query_tolerates_null_payloads(ray_session, null_payload_sf):
    import __ray_entry__ as mod
    _sweep(mod, null_payload_sf)


def test_every_query_tolerates_nan_floats(ray_session, nan_sf):
    import __ray_entry__ as mod
    _sweep(mod, nan_sf, expect_estimator_errors=False)


# Empty-batch schema cases: an empty block must carry the same column
# types as a non-empty one (string ids stay strings, not Arrow's null
# type) and no b'pandas' schema metadata.


@pytest.mark.parametrize('ids, id_type', [
    (['d1', 'd2'], pa.string()), ([7, 8], pa.int64())])
def test_minhash_band_stage_empty_batch_keeps_id_type(ids, id_type):
    from python_fastjsonschema_ray.stages.dedup import MinHashBandStage
    stage = MinHashBandStage('doc_id', 'text', num_perm=16, bands=4)
    full = pa.table({'doc_id': ids, 'text': ['some text', 'more text']})
    out_full = stage(full)
    out_empty = stage(full.slice(0, 0))
    assert out_full.schema.field('doc_id').type == id_type
    assert out_empty.num_rows == 0
    assert out_empty.schema == out_full.schema


@pytest.mark.parametrize('ids, id_type', [
    (['a', 'b', 'c'], pa.string()), ([3, 4, 5], pa.int64())])
def test_candidate_pairs_empty_group_keeps_id_type(ids, id_type):
    import numpy as np
    from python_fastjsonschema_ray.stages.dedup import _pairs_table
    arr = np.array(ids, dtype=object if isinstance(ids[0], str) else None)
    full = _pairs_table([arr[:1]], [arr[1:2]], arr.dtype)
    empty = _pairs_table([], [], arr.dtype)
    assert full.schema.field('id_a').type == id_type
    assert empty.num_rows == 0
    assert empty.schema == full.schema
    assert empty.schema.metadata is None


def test_global_rank_pandas_blocks_carry_no_pandas_metadata(ray_session):
    import pandas as pd
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages.scan import global_rank
    df = pd.DataFrame({'x': [3, 1, 2], 's': ['c', 'a', 'b']})
    for frame in (df, df.iloc[:0]):
        ranked = global_rank(ray.data.from_pandas(frame), ['x'])
        tables = ray.get(ranked.to_arrow_refs())
        assert all(b'pandas' not in (t.schema.metadata or {})
                   for t in tables)
    got = global_rank(ray.data.from_pandas(df), ['x']).take_all()
    assert [(r['x'], r['rank']) for r in got] == [(1, 1), (2, 2), (3, 3)]


# Every fold that gathers its partials on the driver
# (``stages/exchange.gather``), on a lazy input whose blocks all lose
# their rows in a map: Ray hands no zero-row block to the fold's map,
# so no partial and no type reaches the driver.


def _lazy_empty():
    import ray.data
    t = pa.table({'k': pa.array(range(40), pa.int64()),
                  'v': pa.array([float(i) for i in range(40)]),
                  'g': pa.array(['a', 'b'] * 20),
                  's': pa.array(['x y z w'] * 40),
                  'e': pa.array([[1.0, 0.0]] * 40, pa.list_(pa.float64()))})
    return ray.data.from_arrow([t.slice(i, 10) for i in range(0, 40, 10)]) \
        .map_batches(lambda b: b.slice(0, 0), batch_format='pyarrow',
                     batch_size=None)


def _empty_answers():
    import math

    import numpy as np
    import ray.data
    from python_fastjsonschema_ray.pipelines import constraints as C
    from python_fastjsonschema_ray.pipelines.infer import profile_columns
    from python_fastjsonschema_ray.stages import (
        ann, cluster, components, decontam, pca, quantile, scale)

    edges = [0.0, 10.0, 20.0, 40.0]
    seats = np.array([[1.0, 0.0], [0.0, 1.0]])
    full = ray.data.from_arrow(pa.table({'k': pa.array([1, None, 3])}))
    return {
        'column_stats': (lambda ds: C.column_stats(ds, ['v']),
                         lambda got: got == {'v': {
                             'count': 0, 'nulls': 0, 'min': None,
                             'max': None, 'approx_distinct': 0}}),
        'heavy_hitters': (lambda ds: C.heavy_hitters(ds, 'k', 0.2),
                          lambda got: got.num_rows == 0
                          and got.column_names == ['value', 'n']),
        'histogram_profile': (
            lambda ds: C.histogram_profile(ds, 'v', edges),
            lambda got: got.tolist() == [0, 0, 0]),
        'drift_by_group': (lambda ds: C.drift_by_group(ds, 'v', 'g', edges),
                           lambda got: got == []),
        'profile_columns': (
            lambda ds: profile_columns(ds, ['v', 'g']),
            lambda got: [(r['column'], r['nullable'], r['min'],
                          r['min_length']) for r in got]
            == [('v', False, None, None), ('g', False, None, None)]),
        'kmeans_fit': (
            lambda ds: cluster.kmeans_fit(ds, 'e', 2, init_centroids=seats),
            lambda got: (got[0] == seats).all()
            and got[1]['inertia'] == 0.0),
        'cluster_sizes': (
            lambda ds: cluster.cluster_sizes(ds, 3, cluster_column='k'),
            lambda got: got.tolist() == [0, 0, 0]),
        'pca_fit': (lambda ds: pca.pca_fit(ds, 'e', 1),
                    ValueError('PCA needs at least 2 rows, got 0')),
        'column_moments': (lambda ds: scale.column_moments(ds, ['v']),
                           lambda got: got['v'][0] == 0
                           and math.isnan(got['v'][1])
                           and got['v'][2] == 0.0),
        'benchmark_ngrams': (
            lambda ds: decontam.benchmark_ngrams(ds, 's', n=2),
            lambda got: len(got) == 0 and got.dtype == np.uint64),
        'exact_quantile': (lambda ds: quantile.exact_quantile(ds, 'v', 0.5),
                           lambda got: got is None),
        'topk_cosine': (
            lambda ds: ann.topk_cosine(ds, 'k', 'e', [1.0, 0.0], k=2),
            lambda got: got.empty
            and list(got.columns) == ['query', 'k', 'sim']),
        'connected_components': (
            lambda ds: components.connected_components(
                ds.select_columns(['k', 'v']), 'k', 'v'),
            lambda got: got.count() == 0),
        'check_referential_bloom': (
            lambda ds: C.check_referential_bloom(full, 'k', ds, 'k')[0],
            lambda got: sorted(got.to_pandas()['k']) == [1, 3]),
    }


@pytest.mark.parametrize('name', [
    'column_stats', 'heavy_hitters', 'histogram_profile', 'drift_by_group',
    'profile_columns', 'kmeans_fit', 'cluster_sizes', 'pca_fit',
    'column_moments', 'benchmark_ngrams', 'exact_quantile', 'topk_cosine',
    'connected_components', 'check_referential_bloom'])
def test_gathered_folds_on_a_lazy_empty_input(ray_session, name):
    call, want = _empty_answers()[name]
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=str(want)):
            call(_lazy_empty())
    else:
        assert want(call(_lazy_empty()))
