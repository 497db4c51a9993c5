"""Table-constraint pipelines vs DuckDB exact answers on testdata."""

import duckdb
import numpy as np
import pytest

SF = '/root/testdata/sf0.001'


@pytest.fixture(scope='module')
def ddb():
    con = duckdb.connect()
    for t in ('lineitem', 'orders', 'customer', 'events'):
        con.execute(
            "CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            .format(t=t, sf=SF))
    return con


def test_column_stats(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import column_stats
    ds = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_quantity', 'l_extendedprice'])
    stats = column_stats(ds, ['l_quantity', 'l_extendedprice'])
    row = ddb.execute(
        'SELECT count(*), count(*) - count(l_quantity), min(l_quantity), '
        'max(l_quantity), sum(l_quantity), avg(l_quantity), '
        'count(DISTINCT l_quantity), '
        'quantile_cont(l_quantity, 0.5) FROM lineitem').fetchone()
    s = stats['l_quantity']
    assert s['count'] == row[0]
    assert s['nulls'] == row[1]
    assert float(s['min']) == row[2]
    assert float(s['max']) == row[3]
    assert abs(s['sum'] - row[4]) < 1e-6
    assert abs(s['mean'] - row[5]) < 1e-9
    assert abs(s['approx_distinct'] - row[6]) / row[6] < 0.05
    assert abs(s['p50'] - row[7]) < 2.0


def test_check_unique(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import check_unique
    ds = ray.data.read_parquet(SF + '/events.parquet', columns=['event_id'])
    # Plant duplicates: union the head of the table with itself.
    dup = ds.limit(10)
    both = ds.union(dup)
    dups = check_unique(both, ['event_id']).take_all()
    expected = ddb.execute(
        'SELECT event_id FROM (SELECT event_id FROM events UNION ALL '
        'SELECT event_id FROM (SELECT event_id FROM events LIMIT 10)) '
        'GROUP BY event_id HAVING count(*) > 1 ORDER BY event_id').fetchall()
    got = sorted((r['event_id'], r['n']) for r in dups)
    assert [g[0] for g in got] == [e[0] for e in expected]
    assert all(g[1] == 2 for g in got)


def test_dedup_exact(ray_session):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import dedup_exact
    ds = ray.data.read_parquet(SF + '/events.parquet',
                               columns=['event_id', 'event_type'])
    both = ds.union(ds.limit(25))
    deduped = dedup_exact(both, ['event_id'])
    assert deduped.count() == ds.count()


def test_check_referential(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential, check_referential_large)
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_custkey'])
    customer = ray.data.read_parquet(SF + '/customer.parquet',
                                     columns=['c_custkey'])
    expected = ddb.execute(
        'SELECT count(*) FROM orders WHERE o_custkey NOT IN '
        '(SELECT c_custkey FROM customer)').fetchone()[0]
    violations = check_referential(orders, 'o_custkey', customer, 'c_custkey')
    assert violations.count() == expected
    # The bucketed large-side variant must agree.
    large = check_referential_large(orders, 'o_custkey', customer, 'c_custkey',
                                    num_buckets=8)
    assert large.count() == expected


def test_drift(ray_session):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        drift_check, histogram_profile)
    ds = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_quantity', 'l_extendedprice'])
    edges = np.linspace(0, 60, 25)
    ref = histogram_profile(ds, 'l_quantity', edges)
    # Same distribution → no drift.
    report = drift_check(ds, 'l_quantity', ref, edges)
    assert not report['drifted'], report
    # Totally different column → drift.
    report2 = drift_check(ds, 'l_extendedprice', ref, edges)
    assert report2['drifted']


def test_drift_by_group(ray_session):
    import numpy as np
    import ray.data
    import pandas as pd
    from python_fastjsonschema_ray.pipelines.constraints import drift_by_group
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        'g': ['a'] * 5000 + ['b'] * 5000 + ['shifted'] * 500,
        'x': np.concatenate([rng.normal(0, 1, 5000), rng.normal(0, 1, 5000),
                             rng.normal(4, 1, 500)]),
    })
    ds = ray.data.from_pandas(df)
    edges = np.linspace(-5, 9, 40)
    reports = drift_by_group(ds, 'x', 'g', edges)
    by_group = {r['group']: r for r in reports}
    assert not by_group['a']['drifted']
    assert not by_group['b']['drifted']
    assert by_group['shifted']['drifted']


def test_decimal_column_validation(ray_session):
    """Decimal128 columns validate as numbers (reference: Decimal is a
    first-class number, draft04.py:336-358)."""
    import decimal
    import pyarrow as pa
    from python_fastjsonschema_ray.pipelines.validate import TableValidator
    t = pa.table({'d': pa.array(
        [decimal.Decimal('1.50'), decimal.Decimal('99.99'), None],
        type=pa.decimal128(10, 2))})
    tv = TableValidator({'properties': {'d': {
        'type': ['number', 'null'], 'minimum': 1, 'maximum': 50}}}, t.schema)
    res = tv.validate_batch(t)
    assert list(res.valid) == [True, False, True]
    assert res.records[0][1][1] == 'data.d must be smaller than or equal to 50'
    assert res.records[0][1][4] == decimal.Decimal('99.99')


def test_bloom_filter_basics():
    import numpy as np
    from python_fastjsonschema_ray.state.sketches import (
        BloomFilter, hash64_array)
    import pyarrow as pa
    keys = pa.array(list(range(10_000)), type=pa.int64())
    bloom = BloomFilter(len(keys), bits_per_key=16)
    bloom.add_hashes(hash64_array(keys))
    # All inserted keys are found.
    assert bloom.contains_hashes(hash64_array(keys)).all()
    # FPR on disjoint keys is near the design point.
    probe = pa.array(list(range(1_000_000, 1_050_000)), type=pa.int64())
    fp = bloom.contains_hashes(hash64_array(probe)).mean()
    assert fp < 0.005, fp
    rt = BloomFilter.deserialize(bloom.serialize())
    assert rt.contains_hashes(hash64_array(keys)).all()


def test_check_referential_bloom(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_bloom)
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_custkey'])
    customer = ray.data.read_parquet(SF + '/customer.parquet',
                                     columns=['c_custkey'])
    # Plant orphans: shift the custkey of 20 specific orders out of range.
    def plant(batch):
        batch = batch.to_pandas()
        mask = batch['o_orderkey'] < 20
        batch.loc[mask, 'o_custkey'] += 10_000_000
        return batch
    planted = orders.map_batches(plant, batch_format='pyarrow')
    violations, fpr = check_referential_bloom(
        planted, 'o_custkey', customer, 'c_custkey')
    n = violations.count()
    assert fpr < 0.005
    # All 20 planted orphans found (up to fpr misses — none expected at
    # this scale with overwhelming probability).
    assert n == 20


def test_referential_null_fk_policy(ray_session):
    """Uniform policy: NULL foreign keys are skipped by every referential
    variant (SQL anti-join semantics), matching the uniqueness check."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential, check_referential_bloom, check_referential_large)
    left = ray.data.from_arrow(pa.table({
        'id': pa.array([1, 2, 3, 4], type=pa.int64()),
        'fk': pa.array([10, None, 99, None], type=pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'k': pa.array([10, 20], type=pa.int64())}))
    out = check_referential(left, 'fk', ref, 'k').to_pandas()
    assert out['id'].tolist() == [3]          # only the real orphan
    out_b, _ = check_referential_bloom(left, 'fk', ref, 'k')
    assert out_b.to_pandas()['id'].tolist() == [3]
    out_l = check_referential_large(left, 'fk', ref, 'k').to_pandas()
    assert sorted(out_l['id'].tolist()) == [3]


def test_embedding_matrix_sliced_fixed_size_list():
    import pyarrow as pa
    import numpy as np
    from python_fastjsonschema_ray.functions.arrowutil import embedding_matrix
    flat = pa.array(np.arange(24, dtype=np.float32))
    fsl = pa.FixedSizeListArray.from_arrays(flat, 4)     # 6 rows of dim 4
    sliced = fsl.slice(2, 3)                             # rows 2..4
    got = embedding_matrix(sliced)
    expected = np.arange(24, dtype=np.float64).reshape(6, 4)[2:5]
    assert np.array_equal(got, expected)


def _grouped_agg_expected(ddb):
    return ddb.execute("""
        SELECT l_returnflag, sum(l_quantity) AS s, count(*) AS n,
               min(l_quantity) AS mn, max(l_quantity) AS mx,
               avg(l_quantity) AS m
        FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
    """).df()


@pytest.mark.parametrize('combine', ['single', 'bucket'])
def test_grouped_agg_vs_duckdb(ray_session, ddb, combine):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    ds = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_returnflag', 'l_quantity'])
    out = grouped_agg(ds, ['l_returnflag'],
                      {'s': ('l_quantity', 'sum'),
                       'n': (None, 'count'),
                       'mn': ('l_quantity', 'min'),
                       'mx': ('l_quantity', 'max'),
                       'm': ('l_quantity', 'mean')},
                      combine=combine).to_pandas()
    out = out.sort_values('l_returnflag').reset_index(drop=True)
    exp = _grouped_agg_expected(ddb)
    assert out['l_returnflag'].tolist() == exp['l_returnflag'].tolist()
    for c in ('s', 'n', 'mn', 'mx'):
        assert out[c].tolist() == exp[c].tolist(), c
    assert np.allclose(out['m'], exp['m'])


def test_grouped_agg_null_keys_and_values(ray_session):
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    t = pa.table({
        'k': pa.array(['a', 'a', None, 'b', None], type=pa.string()),
        'v': pa.array([1.0, None, 3.0, 4.0, 5.0], type=pa.float64())})
    ds = ray.data.from_arrow(t)
    out = grouped_agg(ds, ['k'],
                      {'s': ('v', 'sum'), 'n': (None, 'count'),
                       'm': ('v', 'mean')},
                      combine='single').to_pandas()
    by_key = {(None if k != k or k is None else k): (s, n, m)
              for k, s, n, m in zip(out['k'], out['s'], out['n'], out['m'])}
    # NULL keys form their own group (SQL GROUP BY semantics); mean skips
    # null values.
    assert by_key['a'] == (1.0, 2, 1.0)
    assert by_key['b'] == (4.0, 1, 4.0)
    assert by_key[None] == (8.0, 2, 4.0)


def test_grouped_agg_all_null_values_mean(ray_session):
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    t = pa.table({'k': pa.array(['a', 'a']),
                  'v': pa.array([None, None], type=pa.float64())})
    out = grouped_agg(ray.data.from_arrow(t), ['k'],
                      {'m': ('v', 'mean'), 'n': (None, 'count')},
                      combine='single').to_pandas()
    assert out['n'].tolist() == [2]
    assert np.isnan(out['m'].iloc[0])


def test_dedup_exact_winner_deterministic(ray_session):
    """Pre-aggregated dedup_exact keeps the lowest-sort-order full row per
    key, regardless of block layout."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import dedup_exact
    t = pa.table({
        'k': ['x', 'x', 'y', 'x', 'y', 'z'],
        'v': [3, 1, 9, 2, 8, 5]})
    # Spread rows over several blocks so local winners must be re-folded.
    ds = ray.data.from_arrow(t).repartition(4)
    out = dedup_exact(ds, ['k']).to_pandas().sort_values('k')
    assert list(zip(out['k'], out['v'])) == [('x', 1), ('y', 8), ('z', 5)]


def test_grouped_topk_vs_duckdb(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_topk
    ds = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_orderkey', 'l_returnflag',
                                        'l_extendedprice'])
    out = grouped_topk(ds, ['l_returnflag'],
                       ['l_extendedprice', 'l_orderkey'], k=4,
                       descending=[True, False]).to_pandas()
    exp = ddb.execute("""
        SELECT l_returnflag, l_orderkey, l_extendedprice FROM (
            SELECT l_returnflag, l_orderkey, l_extendedprice,
                   row_number() OVER (
                       PARTITION BY l_returnflag
                       ORDER BY l_extendedprice DESC, l_orderkey ASC) rn
            FROM lineitem) WHERE rn <= 4
    """).df()
    cols = ['l_returnflag', 'l_orderkey', 'l_extendedprice']
    got = sorted(map(tuple, out[cols].itertuples(index=False)))
    want = sorted(map(tuple, exp[cols].itertuples(index=False)))
    assert got == want


def test_grouped_topk_ascending_and_blocks(ray_session):
    """Smallest-k variant, fold across many blocks."""
    import ray.data
    import pyarrow as pa
    from python_fastjsonschema_ray.pipelines.constraints import grouped_topk
    t = pa.table({
        'g': ['a'] * 6 + ['b'] * 4,
        'v': [5, 3, 9, 1, 7, 2, 10, 30, 20, 40],
        'id': list(range(10))})
    ds = ray.data.from_arrow(t).repartition(5)
    out = grouped_topk(ds, ['g'], ['v', 'id'], k=2,
                       descending=[False, False]).to_pandas()
    got = sorted(map(tuple, out[['g', 'v']].itertuples(index=False)))
    assert got == [('a', 1), ('a', 2), ('b', 10), ('b', 20)]


def test_deterministic_sample_stability(ray_session):
    """Same membership across re-runs and block layouts; fraction is
    approximately honored; null keys dropped."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.stages.sample import deterministic_sample
    t = pa.table({'id': pa.array(list(range(2000)) + [None],
                                 type=pa.int64())})
    a = deterministic_sample(ray.data.from_arrow(t), 'id', 0.2) \
        .to_pandas()['id'].tolist()
    b = deterministic_sample(ray.data.from_arrow(t).repartition(7),
                             'id', 0.2).to_pandas()['id'].tolist()
    assert sorted(a) == sorted(b)
    assert 0.15 < len(a) / 2000 < 0.25
    assert None not in a
    # Different salt => different membership.
    c = deterministic_sample(ray.data.from_arrow(t), 'id', 0.2,
                             salt=99).to_pandas()['id'].tolist()
    assert sorted(c) != sorted(a)


def test_stratified_sample_exact_counts(ray_session):
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.stages.sample import (
        stratified_sample_exact)
    t = pa.table({
        'g': ['a'] * 50 + ['b'] * 3,
        'id': pa.array(list(range(53)), type=pa.int64())})
    out = stratified_sample_exact(
        ray.data.from_arrow(t).repartition(4), ['g'], 'id', 5).to_pandas()
    counts = out.groupby('g')['id'].count().to_dict()
    assert counts == {'a': 5, 'b': 3}     # small group keeps all rows
    out2 = stratified_sample_exact(
        ray.data.from_arrow(t).repartition(2), ['g'], 'id', 5).to_pandas()
    assert sorted(out['id']) == sorted(out2['id'])   # layout-independent


def test_heavy_hitters_exact(ray_session):
    """Superset candidates + exact recount: values straddling the
    threshold across blocks are neither missed nor over-reported."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import heavy_hitters
    # 'a': 40%, 'b': 25%, rest unique (each block individually has
    # different local proportions thanks to interleaving).
    vals = (['a'] * 40 + ['b'] * 25 + ['u%d' % i for i in range(35)])
    ds = ray.data.from_arrow(pa.table({'c': vals})).repartition(5)
    out = heavy_hitters(ds, 'c', 0.2).to_pandas()
    assert list(zip(out['value'], out['n'])) == [('a', 40), ('b', 25)]
    out2 = heavy_hitters(ds, 'c', 0.5).to_pandas()
    assert len(out2) == 0
    # Threshold exactly equal to a count is NOT a hit (strict >).
    out3 = heavy_hitters(ds, 'c', 0.4).to_pandas()
    assert list(out3['value']) == []


def test_distinct_count_exact(ray_session, ddb):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import distinct_count
    ds = ray.data.read_parquet(SF + '/lineitem.parquet',
                               columns=['l_returnflag', 'l_linestatus'])
    got = distinct_count(ds, ['l_returnflag', 'l_linestatus'])
    exp = ddb.execute(
        'SELECT count(DISTINCT (l_returnflag, l_linestatus)) '
        'FROM lineitem').fetchone()[0]
    assert got == exp
    import pyarrow as pa
    empty = ray.data.from_arrow(pa.table({'a': pa.array([], pa.int64())}))
    assert distinct_count(empty, ['a']) == 0


def test_global_topk(ray_session):
    """global_topk == sort().limit() with a total order, without the
    full sort exchange; ties broken by the appended key."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import global_topk
    t = pa.table({'w': pa.array(list('edcbaabcde')),
                  'n': pa.array([5, 3, 3, 9, 1, 5, 3, 3, 9, 1],
                                type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4)
    out = global_topk(ds, ['n', 'w'], 4,
                      descending=[True, False]).to_pandas()
    assert list(map(tuple, out.itertuples(index=False))) == [
        ('b', 9), ('d', 9), ('a', 5), ('e', 5)]
    # k larger than the dataset returns everything, still ordered.
    out = global_topk(ds, ['n', 'w'], 99,
                      descending=[True, False]).to_pandas()
    assert len(out) == 10 and out['n'].iloc[0] == 9


def test_column_stats_merges_typed_min_max(ray_session):
    """Per-batch min/max merge as values: as strings '9.5' > '10.0' and
    '9' > '100'."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import column_stats
    blocks = [pa.table({'f': [9.5, 9.0], 'i': [9, 7], 's': ['b', 'a']}),
              pa.table({'f': [10.0, 12.5], 'i': [100, 20], 's': ['c', None]})]
    stats = column_stats(ray.data.from_arrow(blocks), ['f', 'i', 's'],
                         batch_size=2)
    assert (stats['f']['min'], stats['f']['max']) == ('9.0', '12.5')
    assert (stats['i']['min'], stats['i']['max']) == ('7', '100')
    assert (stats['s']['min'], stats['s']['max']) == ('a', 'c')
    assert stats['s']['nulls'] == 1


def _blocks(ds):
    import ray
    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]


def _no_pandas_metadata(tables):
    return all(b'pandas' not in (t.schema.metadata or {}) for t in tables)


def test_check_unique_key_types_and_nulls(ray_session):
    """Null keys are skipped, a nullable int64 key stays int64, string keys
    group exactly, and the output carries no pandas metadata."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import check_unique
    t = pa.table({
        'k': pa.array([1, 1, None, None, 2, 3, 3, 3], type=pa.int64()),
        's': pa.array(['a', 'a', 'x', 'x', 'b', 'c', 'c', None])})
    ds = ray.data.from_arrow([t.slice(0, 4), t.slice(4)])
    out = _blocks(check_unique(ds, ['k', 's'], num_buckets=4))
    assert out and _no_pandas_metadata(out)
    assert all(b.schema.field('k').type == pa.int64() for b in out)
    assert all(b.schema.field('s').type == pa.string() for b in out)
    got = sorted(row for b in out for row in zip(
        b['k'].to_pylist(), b['s'].to_pylist(), b['n'].to_pylist()))
    assert got == [(1, 'a', 2), (3, 'c', 2)]
    single = _blocks(check_unique(ds.select_columns(['s']), ['s'],
                                  num_buckets=2))
    assert sorted(r for b in single for r in zip(
        b['s'].to_pylist(), b['n'].to_pylist())) == \
        [('a', 2), ('c', 2), ('x', 2)]


def test_check_referential_large_key_types(ray_session):
    """int32 foreign keys against an int64 reference, string keys, null
    FKs skipped, an empty reference, payload types kept (a nullable int64
    column stays int64) and no pandas metadata."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_large)
    left = ray.data.from_arrow(pa.table({
        'fk': pa.array([10, None, 99, 20, 98], type=pa.int32()),
        'payload': pa.array([1, None, 3, 4, None], type=pa.int64())}))
    ref = ray.data.from_arrow(pa.table({
        'k': pa.array([10, 20, 30], type=pa.int64())}))
    out = _blocks(check_referential_large(left, 'fk', ref, 'k',
                                          num_buckets=4))
    assert _no_pandas_metadata(out)
    assert all(b.schema.names == ['fk', 'payload'] for b in out)
    assert all(b.schema.field('fk').type == pa.int32()
               and b.schema.field('payload').type == pa.int64() for b in out)
    assert sorted(r for b in out for r in zip(
        b['fk'].to_pylist(), b['payload'].to_pylist())) == \
        [(98, None), (99, 3)]

    strings = ray.data.from_arrow(pa.table({
        'name': pa.array(['a', 'b', None, 'zz', 'b'])}))
    names = ray.data.from_arrow(pa.table({'name': pa.array(['b', 'c'])}))
    got = _blocks(check_referential_large(strings, 'name', names, 'name',
                                          num_buckets=3))
    assert sorted(v for b in got for v in b['name'].to_pylist()) == \
        ['a', 'zz']

    empty_ref = ray.data.from_arrow(
        pa.table({'k': pa.array([], type=pa.int64())}))
    all_out = _blocks(check_referential_large(left, 'fk', empty_ref, 'k',
                                              num_buckets=4))
    assert _no_pandas_metadata(all_out)
    assert sorted(v for b in all_out for v in b['fk'].to_pylist()) == \
        [10, 20, 98, 99]


_SINGLE_CPU_REFERENTIAL = '''
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
path = sys.argv[1] + '/left.parquet'
pq.write_table(pa.table({'fk': pa.array([i % 130 for i in range(1000)])}),
               path, row_group_size=100)
ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR')
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from python_fastjsonschema_ray.pipelines.constraints import check_referential
ref = ray.data.from_items([{'k': i} for i in range(100)])
out = check_referential(ray.data.read_parquet(path), 'fk', ref, 'k')
print('orphans', out.count())
ray.shutdown()
'''


def test_check_referential_single_cpu(tmp_path):
    """With one CPU the broadcast anti-join over a parquet read still
    finishes: its default task path holds no CPU the read tasks need."""
    import os
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, '-c', _SINGLE_CPU_REFERENTIAL, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail('check_referential did not finish in 60 s at num_cpus=1')
    # fk = i % 130 over i in 0..999: keys 100..129 occur 7 times each.
    assert 'orphans 210' in out.splitlines()
