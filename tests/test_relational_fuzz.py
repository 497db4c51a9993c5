"""Property-based differential tests: the round-3 relational operators
(grouped_agg, grouped_topk, dedup_exact, shuffle_join,
connected_components) vs exact pandas/union-find references on random
small frames with random block layouts."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import HealthCheck, given, settings, strategies as st


def _frame(draw, max_rows=60):
    n = draw(st.integers(0, max_rows))
    keys = draw(st.lists(
        st.sampled_from(['a', 'b', 'c', 'd']), min_size=n, max_size=n))
    vals = draw(st.lists(
        st.one_of(st.integers(-50, 50).map(float), st.just(np.nan)),
        min_size=n, max_size=n))
    ids = list(range(n))
    return pd.DataFrame({'k': keys, 'v': vals, 'id': ids})


frames = st.builds(lambda: None)  # placeholder replaced by composite


@st.composite
def frame_and_blocks(draw):
    df = _frame(draw)
    blocks = draw(st.integers(1, 4))
    return df, blocks


def _ds(df, blocks):
    import ray.data
    t = pa.table({
        'k': pa.array(df['k'], pa.string()),
        'v': pa.array([None if v != v else v for v in df['v']],
                      pa.float64()),
        'id': pa.array(df['id'], pa.int64())})
    ds = ray.data.from_arrow(t)
    return ds.repartition(blocks) if len(df) else ds


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(frame_and_blocks())
def test_grouped_agg_fuzz(ray_session, fb):
    from python_fastjsonschema_ray.pipelines.constraints import grouped_agg
    df, blocks = fb
    if df.empty:
        return
    out = grouped_agg(_ds(df, blocks), ['k'],
                      {'s': ('v', 'sum'), 'n': (None, 'count'),
                       'm': ('v', 'mean'), 'mx': ('v', 'max')},
                      num_buckets=1).to_pandas()
    # SQL's SUM: NULL (NaN here) for a group without values.
    exp = df.groupby('k').agg(
        s=('v', lambda v: v.sum(min_count=1)), n=('v', 'size'),
        m=('v', 'mean'), mx=('v', 'max'))
    got = out.set_index('k').sort_index()
    assert got.index.tolist() == exp.index.tolist()
    for c in ('s', 'n', 'm', 'mx'):
        a, b = got[c].to_numpy(dtype=float), exp[c].to_numpy(dtype=float)
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), c


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(frame_and_blocks(), st.integers(1, 4))
def test_grouped_topk_fuzz(ray_session, fb, k):
    from python_fastjsonschema_ray.pipelines.constraints import grouped_topk
    df, blocks = fb
    if df.empty:
        return
    out = grouped_topk(_ds(df, blocks), ['k'], ['v', 'id'], k,
                       descending=[True, False]).to_pandas()
    exp = df.sort_values(['v', 'id'], ascending=[False, True]) \
        .groupby('k', sort=False).head(k)
    assert sorted(out['id']) == sorted(exp['id'])


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(frame_and_blocks())
def test_dedup_exact_fuzz(ray_session, fb):
    from python_fastjsonschema_ray.pipelines.constraints import dedup_exact
    df, blocks = fb
    if df.empty:
        return
    # Make rows comparable (no NaN ambiguity in winners): drop v.
    sub = df[['k', 'id']]
    import ray.data
    ds = ray.data.from_arrow(pa.table({
        'k': pa.array(sub['k'], pa.string()),
        'id': pa.array(sub['id'], pa.int64())})).repartition(blocks)
    out = dedup_exact(ds, ['k']).to_pandas()
    exp = sub.sort_values(['k', 'id']).groupby('k').head(1)
    assert sorted(zip(out['k'], out['id'])) == \
        sorted(zip(exp['k'], exp['id']))


@settings(max_examples=20, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                min_size=0, max_size=40),
       st.integers(1, 4))
def test_connected_components_fuzz(ray_session, edges, blocks):
    import ray.data
    from python_fastjsonschema_ray.stages.components import (
        connected_components)
    t = pa.table({'id_a': pa.array([a for a, _ in edges], pa.int64()),
                  'id_b': pa.array([b for _, b in edges], pa.int64())})
    ds = ray.data.from_arrow(t)
    if edges:
        ds = ds.repartition(blocks)
    got_df = connected_components(ds).to_pandas()
    got = dict(zip(got_df.get('id', []), got_df.get('component_id', [])))
    # Reference union-find.
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    exp = {x: find(x) for x in parent}
    assert got == exp
