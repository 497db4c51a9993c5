"""grouped_scan (per-key ordered window scans) vs a pandas reference."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df, blocks=4):
    import ray.data
    return ray.data.from_arrow(
        pa.Table.from_pandas(df, preserve_index=False)).repartition(blocks)


def _reference(df, keys, order_by, value, ops, window=None):
    srt = df.sort_values(keys + order_by, kind='mergesort')
    g = srt.groupby(keys, sort=False)
    out = srt.copy()
    for op in ops:
        if op == 'row_number':
            out[op] = g.cumcount() + 1
        elif op == 'cumsum':
            out[op] = g[value].cumsum().astype(np.float64)
        elif op == 'lag':
            out[op] = g[value].shift(1)
        elif op == 'delta':
            out[op] = srt[value] - g[value].shift(1)
        elif op == 'rolling_mean':
            out[op] = (g[value]
                       .rolling(window, min_periods=1).mean()
                       .reset_index(drop=True).to_numpy())
    return out


def _events_df(n=4000, n_keys=37, seed=11):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        'k': rng.integers(0, n_keys, n),
        't': rng.permutation(n),          # unique order per key
        'v': rng.normal(50, 20, n).round(2),
    })


def _buckets(monkeypatch, n):
    """Every exchange of the test runs on ``n`` buckets."""
    from python_fastjsonschema_ray.stages import exchange
    monkeypatch.setattr(exchange, 'default_buckets', lambda: n)


def _sorted(df, keys, order_by):
    return (df.sort_values(keys + order_by, kind='mergesort')
            .reset_index(drop=True))


@pytest.mark.parametrize('ops,window', [
    (('row_number', 'cumsum'), None),
    (('lag', 'delta', 'rolling_mean'), 4),
    (('row_number', 'cumsum', 'lag', 'delta', 'rolling_mean'), 7),
])
def test_grouped_scan_randomized(ray_session, monkeypatch, ops, window):
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    _buckets(monkeypatch, 8)
    df = _events_df()
    got = grouped_scan(_ds(df), ['k'], ['t'], 'v', ops=ops,
                       window=window).to_pandas()
    exp = _reference(df, ['k'], ['t'], 'v', ops, window)
    got = _sorted(got, ['k'], ['t'])
    exp = _sorted(exp[got.columns], ['k'], ['t'])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  atol=1e-9, rtol=1e-9)


def test_grouped_scan_multi_key_and_tiebreak(ray_session, monkeypatch):
    """Composite keys; ties on the first order column broken by the
    second, so results are deterministic."""
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    _buckets(monkeypatch, 8)
    rng = np.random.default_rng(5)
    n = 2000
    df = pd.DataFrame({
        'a': rng.integers(0, 6, n),
        'b': rng.integers(0, 4, n),
        't': rng.integers(0, 50, n),      # heavy ties
        'i': np.arange(n),                # unique tie-break
        'v': rng.integers(0, 100, n).astype('float64'),
    })
    got = grouped_scan(_ds(df), ['a', 'b'], ['t', 'i'], 'v',
                       ops=('row_number', 'cumsum', 'lag')).to_pandas()
    exp = _reference(df, ['a', 'b'], ['t', 'i'], 'v',
                     ('row_number', 'cumsum', 'lag'))
    got = _sorted(got, ['a', 'b'], ['t', 'i'])
    exp = _sorted(exp[got.columns], ['a', 'b'], ['t', 'i'])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_grouped_scan_single_row_groups(ray_session, monkeypatch):
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    _buckets(monkeypatch, 4)
    df = pd.DataFrame({'k': [1, 2, 3], 't': [0, 0, 0],
                       'v': [5.0, 6.0, 7.0]})
    got = _sorted(grouped_scan(_ds(df, blocks=2), ['k'], ['t'], 'v',
                               ops=('row_number', 'lag', 'rolling_mean'),
                               window=3).to_pandas(),
                  ['k'], ['t'])
    assert got['row_number'].tolist() == [1, 1, 1]
    assert got['lag'].isna().all()
    assert got['rolling_mean'].tolist() == [5.0, 6.0, 7.0]


def test_grouped_scan_window_larger_than_groups(ray_session, monkeypatch):
    """window > every group size: rolling mean equals the running mean."""
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    _buckets(monkeypatch, 4)
    df = _events_df(n=300, n_keys=40)
    got = grouped_scan(_ds(df), ['k'], ['t'], 'v', ops=('rolling_mean',),
                       window=1000).to_pandas()
    exp = _reference(df, ['k'], ['t'], 'v', ('rolling_mean',), 1000)
    got = _sorted(got, ['k'], ['t'])
    exp = _sorted(exp[got.columns], ['k'], ['t'])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  atol=1e-9, rtol=1e-9)


def test_grouped_scan_validation(ray_session):
    from python_fastjsonschema_ray.stages.scan import grouped_scan
    df = _events_df(n=10)
    with pytest.raises(ValueError, match='unknown scan op'):
        grouped_scan(_ds(df), ['k'], ['t'], 'v', ops=('nope',))
    with pytest.raises(ValueError, match='window'):
        grouped_scan(_ds(df), ['k'], ['t'], 'v', ops=('rolling_mean',))


def test_global_rank_total_order(ray_session):
    """Every row gets its exact 1-indexed global position; ranks are a
    permutation of 1..N and agree with a pandas argsort reference."""
    import numpy as np
    import pandas as pd
    import ray.data
    from python_fastjsonschema_ray.stages.scan import global_rank

    rng = np.random.default_rng(5)
    df = pd.DataFrame({'v': rng.integers(0, 50, 500).astype('int64'),
                       'id': np.arange(500, dtype='int64')})
    ds = ray.data.from_pandas(df).repartition(7)
    out = global_rank(ds, ['v', 'id']).to_pandas()
    assert sorted(out['rank']) == list(range(1, 501))
    ref = df.sort_values(['v', 'id']).reset_index(drop=True)
    got = out.sort_values('rank').reset_index(drop=True)
    assert got['id'].tolist() == ref['id'].tolist()


def test_global_rank_descending(ray_session):
    import pandas as pd
    import ray.data
    from python_fastjsonschema_ray.stages.scan import global_rank

    df = pd.DataFrame({'v': [3, 1, 2], 'id': [0, 1, 2]})
    out = global_rank(ray.data.from_pandas(df), ['v'],
                      descending=True).to_pandas().sort_values('rank')
    assert out['v'].tolist() == [3, 2, 1]
