"""A hot key needs no salt; top-k violation examples; pivots."""

import duckdb
import numpy as np
import pyarrow as pa


def test_grouped_agg_hot_key_moves_partials_only(ray_session, monkeypatch):
    """Why ``grouped_agg`` needs no salt: over a 90%-hot key on 16
    blocks, the rows entering the exchange are the per-block partials
    (at most blocks x distinct keys, whatever the key's row count), and
    the result equals DuckDB's ``sum(v)``, ``count(v)`` and ``count(*)``
    per key (null values and a null key included)."""
    import ray.data
    from python_fastjsonschema_ray.pipelines import constraints

    rng = np.random.default_rng(90)
    n, blocks = 32_000, 16
    cold = rng.choice(['c{}'.format(i) for i in range(8)] + [None], n)
    k = np.where(rng.random(n) < 0.9, 'hot', cold)
    v = rng.integers(0, 1000, n)
    t = pa.table({'k': pa.array(k, pa.string()),
                  'v': pa.array(v, pa.int64(), mask=rng.random(n) < 0.05)})
    distinct = len(set(t.column('k').to_pylist()))
    m = n // blocks
    ds = ray.data.from_arrow([t.slice(i * m, m) for i in range(blocks)])

    entering = []
    real = constraints.exchange

    def counting_exchange(partials, keys, fn, **kwargs):
        entering.append(partials.count())
        return real(partials, keys, fn, **kwargs)

    monkeypatch.setattr(constraints, 'exchange', counting_exchange)
    out = constraints.grouped_agg(ds, ['k'], {'s': ('v', 'sum'),
                                              'nv': ('v', 'count'),
                                              'n': (None, 'count')})
    got = sorted(out.to_pandas().itertuples(index=False, name=None),
                 key=lambda r: (r[0] is None, r))
    assert len(entering) == 1 and entering[0] <= blocks * distinct
    con = duckdb.connect()
    con.register('t', t)
    want = con.execute('SELECT k, sum(v), count(v), count(*) FROM t '
                       'GROUP BY k').fetchall()
    assert got == sorted(want, key=lambda r: (r[0] is None, r))


def test_top_violation_examples(ray_session):
    import ray.data
    from python_fastjsonschema_ray.pipelines.validate import (
        top_violation_examples, validate_dataset)
    ds = ray.data.read_parquet('/root/testdata/sf0.001/lineitem.parquet',
                               columns=['l_orderkey', 'l_quantity',
                                        'l_discount'])
    spec = {'properties': {
        'l_quantity': {'maximum': 40},
        'l_discount': {'maximum': 0.05},
    }}
    violations = validate_dataset(ds, spec, mode='violations',
                                  key_column='l_orderkey', fast_fail=False)
    top = top_violation_examples(violations, k=3).to_pandas()
    counts = top.groupby('rule').size()
    assert (counts <= 3).all()
    assert counts.get('maximum', 0) == 3


def test_pivot_table_count_and_sum(ray_session):
    """Pivot cells equal pandas' own pivot on the same data; fill
    applies to absent (index, pivot) pairs; sum aggregates values."""
    import numpy as np
    import pandas as pd
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import pivot_table

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        'grp': rng.choice(['a', 'b', 'c'], 300),
        'status': rng.choice(['X', 'Y'], 300),
        'v': rng.integers(1, 10, 300).astype('int64'),
    })
    df = df[~((df.grp == 'c') & (df.status == 'Y'))]    # a hole
    ds = ray.data.from_pandas(df).repartition(5)

    got = pivot_table(ds, ['grp'], 'status').sort_values('grp') \
        .reset_index(drop=True)
    want = df.pivot_table(index='grp', columns='status', values='v',
                          aggfunc='count', fill_value=0) \
        .reset_index().rename_axis(None, axis=1)
    assert got['X'].tolist() == want['X'].tolist()
    assert got['Y'].tolist() == want['Y'].tolist()
    assert got.loc[got.grp == 'c', 'Y'].iloc[0] == 0    # hole filled

    got = pivot_table(ds, ['grp'], 'status', 'v', agg='sum') \
        .sort_values('grp').reset_index(drop=True)
    want = df.pivot_table(index='grp', columns='status', values='v',
                          aggfunc='sum', fill_value=0).reset_index()
    assert got['X'].tolist() == want['X'].tolist()
