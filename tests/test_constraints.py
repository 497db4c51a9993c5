"""Table-constraint pipelines vs DuckDB exact answers on testdata."""

import duckdb
import numpy as np
import pyarrow as pa
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


def test_check_referential(ray_session, ddb, monkeypatch):
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential, check_referential_large)
    from python_fastjsonschema_ray.stages import join
    orders = ray.data.read_parquet(SF + '/orders.parquet',
                                   columns=['o_orderkey', 'o_custkey'])
    customer = ray.data.read_parquet(SF + '/customer.parquet',
                                     columns=['c_custkey'])
    expected = ddb.execute(
        'SELECT count(*) FROM orders WHERE o_custkey NOT IN '
        '(SELECT c_custkey FROM customer)').fetchone()[0]
    violations = check_referential(orders, 'o_custkey', customer, 'c_custkey')
    assert violations.count() == expected
    # Above the size gate the bucketed co-group path must agree.
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    large = check_referential_large(orders, 'o_custkey', customer, 'c_custkey')
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


def test_bloom_refuses_key_type_families(ray_session):
    """The Bloom check needs no cast (int 2 and float 2.0 hash alike),
    and a foreign key of another type family raises ``TypeError``."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential_bloom)
    ints = ray.data.from_arrow(pa.table({
        'fk': pa.array([2, 3, None], pa.int64())}))
    floats = ray.data.from_arrow(pa.table({'k': pa.array([2.0, 5.0])}))
    out, _ = check_referential_bloom(ints, 'fk', floats, 'k')
    assert out.to_pandas()['fk'].tolist() == [3]
    strings = ray.data.from_arrow(pa.table({'fk': pa.array(['2', '3'])}))
    out, _ = check_referential_bloom(strings, 'fk', floats, 'k')
    with pytest.raises(Exception, match='cannot be cast losslessly'):
        out.materialize()


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


@pytest.mark.parametrize('num_buckets', [1, None])
def test_grouped_agg_vs_duckdb(ray_session, ddb, num_buckets):
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
                      num_buckets=num_buckets).to_pandas()
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
                      num_buckets=1).to_pandas()
    by_key = {(None if k != k or k is None else k): (s, n, m)
              for k, s, n, m in zip(out['k'], out['s'], out['n'], out['m'])}
    # NULL keys form their own group (SQL GROUP BY semantics); mean skips
    # null values.
    assert by_key['a'] == (1.0, 2, 1.0)
    assert by_key['b'] == (4.0, 1, 4.0)
    assert by_key[None] == (8.0, 2, 4.0)

    # A NaN float key and a null float key are one group, on any bucket
    # count and across blocks, as in dedup_exact and grouped_topk.
    f = pa.table({'k': pa.array([1.5, float('nan'), None, 1.5, None,
                                 float('nan')], type=pa.float64()),
                  'v': pa.array([1, 2, 3, 4, 5, 6], type=pa.int64())})
    for buckets in (1, 4):
        got = grouped_agg(ray.data.from_arrow([f.slice(0, 3), f.slice(3)]),
                          ['k'], {'s': ('v', 'sum'), 'n': (None, 'count')},
                          num_buckets=buckets)
        rows = [r for b in _blocks(got) for r in zip(
            b['k'].to_pylist(), b['s'].to_pylist(), b['n'].to_pylist())]
        assert sorted(rows, key=lambda r: (r[0] is None, r)) == \
            [(1.5, 5, 2), (None, 16, 4)], buckets


def test_grouped_agg_all_null_values_mean(ray_session):
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    t = pa.table({'k': pa.array(['a', 'a']),
                  'v': pa.array([None, None], type=pa.float64())})
    out = grouped_agg(ray.data.from_arrow(t), ['k'],
                      {'m': ('v', 'mean'), 'n': (None, 'count')},
                      num_buckets=1).to_pandas()
    assert out['n'].tolist() == [2]
    assert np.isnan(out['m'].iloc[0])


@pytest.mark.parametrize('num_buckets', [1, 4])
def test_grouped_agg_null_groups_vs_duckdb(ray_session, num_buckets):
    """Groups whose values are all null, in one block or spread over
    several (so the fold sees only null partials), agree with DuckDB:
    sum, min, max and avg are NULL, count(*) counts the rows."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    t = pa.table({
        'k': pa.array(['a', 'a', 'b', 'b', 'c', None, 'a', 'd'],
                      type=pa.string()),
        'v': pa.array([None, None, 1.5, None, 2.0, None, None, None],
                      type=pa.float64())})
    out = grouped_agg(ray.data.from_arrow([t.slice(0, 3), t.slice(3)]),
                      ['k'], {'s': ('v', 'sum'), 'mn': ('v', 'min'),
                              'mx': ('v', 'max'), 'm': ('v', 'mean'),
                              'n': (None, 'count')},
                      num_buckets=num_buckets)
    got = sorted((r for b in _blocks(out) for r in zip(
        *(b[c].to_pylist() for c in ('k', 's', 'mn', 'mx', 'm', 'n')))),
        key=lambda r: (r[0] is None, r))
    con = duckdb.connect()
    con.register('t', t)
    want = con.execute(
        'SELECT k, sum(v), min(v), max(v), avg(v), count(*) FROM t '
        'GROUP BY k ORDER BY k NULLS LAST').fetchall()
    assert got == want
    assert got[0] == ('a', None, None, None, None, 3)


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
    out = _blocks(check_referential_large(left, 'fk', ref, 'k'))
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
    got = _blocks(check_referential_large(strings, 'name', names, 'name'))
    assert sorted(v for b in got for v in b['name'].to_pylist()) == \
        ['a', 'zz']

    empty_ref = ray.data.from_arrow(
        pa.table({'k': pa.array([], type=pa.int64())}))
    all_out = _blocks(check_referential_large(left, 'fk', empty_ref, 'k'))
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


# ---------------------------------------------------------------------------
# One exact referential check: the same rows on both sides of its size gate


@pytest.fixture(params=['open', 'shut'])
def gate(request, monkeypatch):
    """Run once under the size gate (broadcast lookup) and once with the
    gate forced shut (co-group exchange)."""
    from python_fastjsonschema_ray.stages import join
    if request.param == 'shut':
        monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    return request.param


def _orphans(ds, column):
    return sorted((v for b in _blocks(ds) for v in b[column].to_pylist()),
                  key=lambda v: (v is None, v))


_KEY_TYPE_CASES = {
    # int32 foreign keys against an int64 reference holding 2**40: the
    # checked cast of the reference to int32 fails on either path.
    'int32_fk_wide_reference': (pa.array([1, 2, 3], pa.int32()),
                                pa.array([1, 2, 2**40], pa.int64()),
                                TypeError),
    # An int FK against a float reference: 2.0 matches FK 2 ...
    'int_fk_float_reference': (pa.array([2, 3], pa.int64()),
                               pa.array([2.0, 5.0]), [3]),
    # ... and 2.5 is never truncated into a match: it fails the cast.
    'int_fk_fractional_reference': (pa.array([2, 3], pa.int64()),
                                    pa.array([2.0, 2.5]), TypeError),
    # A float FK against an int reference: 2.0 matches, 2.5 never does.
    'float_fk_int_reference': (pa.array([2.0, 2.5]),
                               pa.array([2, 7], pa.int64()), [2.5]),
    # A null reference key never matches (null FKs are skipped).
    'null_reference_key': (pa.array([1, None, 2], pa.int64()),
                           pa.array([1, None], pa.int64()), [2]),
    # int64 keys above 2**53 that differ by 1, next to a null FK: a
    # float-converted probe would match 2**53 + 1 to 2**53.
    'int64_above_2_53': (pa.array([2**53, 2**53 + 1, None], pa.int64()),
                         pa.array([2**53], pa.int64()), [2**53 + 1]),
    # A string FK against an int reference: the key types are of
    # different families, so '2' is never cast into a match with 2.
    'string_fk_int_reference': (pa.array(['2', '3']),
                                pa.array([2, 7], pa.int64()), TypeError),
}


@pytest.mark.parametrize('case', sorted(_KEY_TYPE_CASES))
def test_referential_key_types_agree_across_the_gate(ray_session, gate,
                                                     case):
    """Both sides of the gate return the same orphans, or raise the
    same lossy-cast error, for the same key types."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential)
    fk, rk, expected = _KEY_TYPE_CASES[case]
    left = ray.data.from_arrow(pa.table({'fk': fk}))
    ref = ray.data.from_arrow(pa.table({'k': rk}))
    if expected is TypeError:
        # Ray re-raises the worker's TypeError wrapped in its task error.
        with pytest.raises(Exception, match='cannot be cast losslessly'):
            check_referential(left, 'fk', ref, 'k').materialize()
    else:
        assert _orphans(check_referential(left, 'fk', ref, 'k'),
                        'fk') == expected


def _gate_inputs(name):
    """(ds, column, reference, reference column) for one equal-rows case."""
    import ray.data
    rng = np.random.default_rng(5)
    if name == 'null_fks':
        return (ray.data.from_arrow(pa.table({
            'fk': pa.array([10, None, 99, None, 20], pa.int64())})), 'fk',
            ray.data.from_arrow(pa.table({'k': pa.array([10, 20])})), 'k')
    if name in ('empty_reference', 'schemaless_reference'):
        ref = ray.data.from_arrow(pa.table({'k': pa.array([], pa.int64())}))
        if name == 'schemaless_reference':
            ref = ray.data.from_arrow(pa.table({'k': [1]})).map_batches(
                lambda b: pa.table({}), batch_format='pyarrow')
        return (ray.data.from_arrow(pa.table({
            'fk': pa.array([1, None, 3, 3], pa.int64())})), 'fk', ref, 'k')
    if name == 'int32_fk_int64_reference':
        return (ray.data.from_arrow(pa.table({
            'fk': pa.array([10, None, 99, 20, 98], pa.int32())})), 'fk',
            ray.data.from_arrow(pa.table({
                'k': pa.array([10, 20, 30], pa.int64())})), 'k')
    if name == 'string_keys':
        return (ray.data.from_arrow(pa.table({
            'fk': pa.array(['a', 'b', None, 'zz', 'b'])})), 'fk',
            ray.data.from_arrow(pa.table({
                'k': pa.array(['b', 'c'], pa.large_string())})), 'k')
    assert name == '64_blocks'
    k = pa.array(rng.integers(0, 500, 6400), type=pa.int64(),
                 mask=rng.random(6400) < 0.02)
    rk = pa.array(rng.integers(250, 750, 3200), type=pa.int32())
    return (ray.data.from_arrow([pa.table({'fk': k.slice(i * 100, 100)})
                                 for i in range(64)]), 'fk',
            ray.data.from_arrow([pa.table({'k': rk.slice(i * 50, 50)})
                                 for i in range(64)]), 'k')


@pytest.mark.parametrize('name', [
    'null_fks', 'empty_reference', 'schemaless_reference',
    'int32_fk_int64_reference', 'string_keys', '64_blocks'])
def test_referential_gate_paths_return_equal_rows(ray_session, monkeypatch,
                                                  name):
    """With the gate forced shut the co-group path returns the rows the
    broadcast lookup returns."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential)
    from python_fastjsonschema_ray.stages import join
    ds, column, ref, ref_column = _gate_inputs(name)
    broadcast = _orphans(check_referential(ds, column, ref, ref_column),
                         column)
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    shuffled = _orphans(check_referential(ds, column, ref, ref_column),
                        column)
    assert broadcast == shuffled
    assert None not in broadcast
    if name in ('empty_reference', 'schemaless_reference'):
        assert broadcast == [1, 3, 3]


def test_referential_gate_logs_its_path(ray_session, gate, caplog):
    """Each gate decision is logged at INFO on the package logger: the
    operator, the path, the distinct-key bytes and the limit."""
    import logging
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        check_referential)
    from python_fastjsonschema_ray.stages import join
    left = ray.data.from_arrow(pa.table({'fk': pa.array([1, 2, 3])}))
    ref = ray.data.from_arrow(pa.table({'k': pa.array([1, 2])}))
    with caplog.at_level(logging.INFO, logger='python_fastjsonschema_ray'):
        check_referential(left, 'fk', ref, 'k')
    path = 'broadcast' if gate == 'open' else 'shuffle'
    assert [r.getMessage() for r in caplog.records
            if r.name.startswith('python_fastjsonschema_ray')] == [
        'broadcast_lookup_join: {} path, 16 distinct-key bytes, limit {}'
        .format(path, join.BROADCAST_LIMIT_BYTES)]


def test_package_logger_is_silent_by_default():
    import logging
    import python_fastjsonschema_ray  # noqa: F401
    logger = logging.getLogger('python_fastjsonschema_ray')
    assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)


_LOOKUP_BUILDS = '''
import os
import sys
from collections import Counter
import pyarrow as pa
import ray
import ray.data
log = sys.argv[1] + '/builds.log'


def count_builds():
    from python_fastjsonschema_ray.stages import join
    init = join.KeyLookup.__init__

    def counted(self, *args, **kwargs):
        with open(log, 'a') as fh:
            fh.write('%d\\n' % os.getpid())
        init(self, *args, **kwargs)

    join.KeyLookup.__init__ = counted


ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR',
         runtime_env={'worker_process_setup_hook': count_builds})
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from python_fastjsonschema_ray.pipelines.constraints import check_referential
blocks = [pa.table({'fk': pa.array([i, 100 + i], type=pa.int64())})
          for i in range(12)]
ref = ray.data.from_arrow(pa.table({'k': pa.array(range(12))}))
out = check_referential(ray.data.from_arrow(blocks), 'fk', ref, 'k')
print('orphans', out.count())
ray.shutdown()
print('builds', *sorted(Counter(open(log).read().split()).values()))
'''


def test_referential_lookup_builds_once_per_worker(tmp_path):
    """One check over twelve one-batch blocks on one CPU builds the key
    lookup once per worker process, not once per batch."""
    import os
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, '-c', _LOOKUP_BUILDS, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail('check_referential did not finish in 60 s')
    lines = out.splitlines()
    assert 'orphans 12' in lines
    builds = [line for line in lines if line.startswith('builds ')]
    assert builds and set(builds[0].split()[1:]) == {'1'}, lines


# ---------------------------------------------------------------------------
# Null keys form one group in every run-cutting fold (vs DuckDB)


def _null_keyed():
    """40 rows in 4 blocks: an int64 key ``ki`` and a float64 key ``kf``,
    each null in rows of two blocks; ``o`` has ties, ``id`` breaks them."""
    import ray.data
    n = 40
    ki = [None if i % 7 == 3 else i % 3 for i in range(n)]
    kf = [None if i % 9 == 4 else (i % 4) / 2 for i in range(n)]
    t = pa.table({'ki': pa.array(ki, pa.int64()),
                  'kf': pa.array(kf, pa.float64()),
                  'o': pa.array([i % 5 for i in range(n)], pa.int64()),
                  'id': pa.array(range(n), pa.int64()),
                  'v': pa.array([((i * 37) % 11) / 4 for i in range(n)])})
    blocks = [t.slice(i * 10, 10) for i in range(4)]
    for key in ('ki', 'kf'):
        assert sum(b.column(key).null_count > 0 for b in blocks) >= 2
    return ray.data.from_arrow(blocks), t


def _sorted_rows(df, columns):
    return sorted(map(tuple, df[columns].astype(object).where(
        df[columns].notna(), None).itertuples(index=False)),
        key=lambda r: tuple((v is None, v or 0) for v in r))


@pytest.mark.parametrize('key', ['ki', 'kf'])
def test_null_keys_form_one_group_vs_duckdb(ray_session, key):
    """grouped_topk, dedup_exact, grouped_scan, grouped_quantile and
    mixture_sample_exact agree with DuckDB on an input whose null keys
    sit in several blocks: the null key is one group everywhere."""
    from python_fastjsonschema_ray.pipelines.constraints import (
        dedup_exact, grouped_topk)
    from python_fastjsonschema_ray.stages.quantile import grouped_quantile
    from python_fastjsonschema_ray.stages.sample import (
        KNUTH, mixture_sample_exact)
    from python_fastjsonschema_ray.stages.scan import grouped_scan

    ds, t = _null_keyed()
    con = duckdb.connect()
    con.register('nk', t)

    def check(got, sql, columns):
        want = con.execute(sql.format(k=key)).df()
        assert _sorted_rows(got.to_pandas(), columns) == \
            _sorted_rows(want, columns)

    check(grouped_topk(ds, [key], ['o', 'id'], 2,
                       descending=[True, False]), '''
        SELECT {k}, id FROM (SELECT {k}, id, row_number() OVER (
            PARTITION BY {k} ORDER BY o DESC, id) AS rn FROM nk)
        WHERE rn <= 2''', [key, 'id'])
    check(dedup_exact(ds.select_columns([key, 'o']), [key]),
          'SELECT {k}, min(o) AS o FROM nk GROUP BY {k}', [key, 'o'])
    got = grouped_scan(ds, [key], ['o', 'id'], 'v',
                       ops=('row_number', 'cumsum')).to_pandas()
    got['cumsum'] = got['cumsum'].round(9)
    want = con.execute('''
        SELECT {k}, id, row_number() OVER w AS row_number,
               round(sum(v) OVER (w ROWS UNBOUNDED PRECEDING), 9) AS cumsum
        FROM nk WINDOW w AS (PARTITION BY {k} ORDER BY o, id)
    '''.format(k=key)).df()
    cols = [key, 'id', 'row_number', 'cumsum']
    assert _sorted_rows(got, cols) == _sorted_rows(want, cols)
    check(grouped_quantile(ds, [key], 'v', [0.5]), '''
        SELECT {k}, quantile_disc(v, 0.5) AS value FROM nk GROUP BY {k}''',
          [key, 'value'])
    quotas = {g: 2 for g in t.column(key).unique().to_pylist()}
    con.register('quotas', pa.table({'g': pa.array(list(quotas),
                                                   t.schema.field(key).type),
                                     'q': list(quotas.values())}))
    check(mixture_sample_exact(ds, key, 'id', quotas), '''
        SELECT {k}, id FROM (
            SELECT {k}, id, row_number() OVER (PARTITION BY {k}
                ORDER BY (id * ''' + str(KNUTH) + ''') % 1000000000, id) AS rn
            FROM nk) JOIN quotas ON {k} IS NOT DISTINCT FROM g
        WHERE rn <= q''', [key, 'id'])
