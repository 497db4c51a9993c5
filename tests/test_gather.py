"""The driver gather (``stages/exchange.gather``): one execution of the
plan per gather, so the partial folds built on it see each input block
once per pass; ``heavy_hitters`` counts every row in its candidate
pass; and a scan that keeps ``.to_arrow_refs(`` and ``.iter_batches(``
inside ``gather`` and an allowlist."""

import ast
import os
import uuid

import numpy as np
import pyarrow as pa
import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                   'python_fastjsonschema_ray')
ENTRY = os.path.join(os.path.dirname(PKG), '__ray_entry__.py')


def _table(n=100):
    return pa.table({
        'v': pa.array([float(i % 17) for i in range(n)]),
        'c': pa.array([0 if i % 3 else i % 5 for i in range(n)], pa.int64())})


def _counted(tmp_path, tables):
    """A lazy dataset over ``tables`` (one block each) behind a map that
    leaves one file per call in a fresh directory, and a function that
    returns the number of calls so far."""
    import ray.data
    calls = str(tmp_path / uuid.uuid4().hex)
    os.mkdir(calls)

    def counted(b: pa.Table) -> pa.Table:
        open(os.path.join(calls, uuid.uuid4().hex), 'w').close()
        return b

    ds = ray.data.from_arrow(tables).map_batches(
        counted, batch_format='pyarrow', batch_size=None)
    return ds, lambda: len(os.listdir(calls))


def test_gather_runs_the_plan_once(ray_session, tmp_path):
    """``gather`` concatenates the non-empty blocks in one execution; an
    input whose blocks are all empty gives a zero-row table, also in
    one execution (``to_arrow_refs()`` runs a limit-1 probe after it)."""
    from python_fastjsonschema_ray.stages.exchange import gather
    t = _table(40)
    ds, calls = _counted(tmp_path, [t.slice(i, 10) for i in range(0, 40, 10)])
    got = gather(ds)
    assert calls() == 4
    assert sorted(got.column('v').to_pylist()) == sorted(
        t.column('v').to_pylist())
    empty, calls = _counted(tmp_path, [t.slice(i, 10)
                                       for i in range(0, 40, 10)])
    got = gather(empty.filter(expr='v > 100'))
    assert calls() == 4
    assert got.num_rows == 0


def _moments(ds):
    from python_fastjsonschema_ray.stages.scale import column_moments
    return column_moments(ds, ['v'])


def _sizes(ds):
    from python_fastjsonschema_ray.stages.cluster import cluster_sizes
    return cluster_sizes(ds, 5, cluster_column='c')


def _hitters(ds):
    from python_fastjsonschema_ray.pipelines.constraints import (
        heavy_hitters)
    return heavy_hitters(ds, 'c', 0.3)


def _quantile(ds):
    from python_fastjsonschema_ray.stages.quantile import exact_quantile
    return exact_quantile(ds, 'v', 0.5)


@pytest.mark.parametrize('fold, passes', [
    (_moments, 1), (_sizes, 1), (_hitters, 2), (_quantile, 2)],
    ids=['column_moments', 'cluster_sizes', 'heavy_hitters',
         'exact_quantile'])
def test_partial_folds_see_each_block_once_per_pass(ray_session, tmp_path,
                                                    fold, passes):
    """Upstream of a partial fold, each of the 4 blocks is computed
    exactly once per pass of the fold: no schema probe and no count
    pass re-runs the plan."""
    import ray.data
    t = _table()
    ds, calls = _counted(tmp_path, [t.slice(i, 25) for i in range(0, 100, 25)])
    want = fold(ray.data.from_arrow(t))
    got = fold(ds)
    assert calls() == 4 * passes
    if isinstance(want, pa.Table):
        assert got.equals(want)
    else:
        np.testing.assert_equal(got, want)


def test_heavy_hitters_counts_null_key_rows(ray_session):
    """``n`` is every row, null keys included: 'a' (4 of 12 rows) clears
    0.3 x 12 = 3.6, and 'b' (2 rows) does not; over the 6 non-null rows
    alone 'b' would clear 1.8."""
    import ray.data
    from python_fastjsonschema_ray.pipelines.constraints import (
        heavy_hitters)
    keys = ['a', None, 'a', 'b', None, None, 'a', None, 'b', None, 'a', None]
    t = pa.table({'k': pa.array(keys)})
    ds = ray.data.from_arrow([t.slice(0, 6), t.slice(6, 6)])
    got = heavy_hitters(ds, 'k', 0.3)
    assert got.to_pydict() == {'value': ['a'], 'n': [4]}


# ---------------------------------------------------------------------------
# One driver gather

# Functions that may call ``.to_arrow_refs(`` or ``.iter_batches(``
# outside ``gather``, with the reason each stays.
_GATHER_ALLOWLIST = {
    ('stages/exchange.py', 'gather'):
        'the one driver gather of partials and small results',
    ('stages/join.py', 'broadcast_lookup_join'):
        'its refs travel to the workers, where _lookup_table builds the '
        'key lookup from them',
    ('stages/dedup.py', '_verify_candidate_pairs'):
        'its refs travel to the workers, where _textmap_from_refs builds '
        'the id-to-text map from them',
    ('stages/join.py', 'broadcast_interval_join'):
        'not behind the size gate yet; gating it (with a cogroup '
        'fallback) is its own change',
    ('stages/pack.py', 'packing_plan'):
        'ordered per-block remote tasks over a materialized sort, whose '
        'blocks may be pandas',
    ('stages/scan.py', 'global_rank'):
        'ordered per-block remote tasks over a materialized sort, whose '
        'blocks may be pandas',
}


def _sources():
    for root, _, files in os.walk(PKG):
        for f in files:
            if f.endswith('.py'):
                yield os.path.join(root, f)
    yield ENTRY


def test_driver_gathers_go_through_gather():
    """No code of the package or of ``__ray_entry__.py`` calls
    ``.to_arrow_refs(`` or ``.iter_batches(`` except ``gather`` and the
    allowlisted functions (each with its reason): every driver-side
    fold of per-block partials collects them with ``gather``."""
    offenders, used = [], set()
    for path in _sources():
        where = os.path.relpath(path, PKG).replace(os.sep, '/')
        with open(path, encoding='utf-8') as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            name = getattr(top, 'name', '<module>')
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(
                        node.func, 'attr', None) in ('to_arrow_refs',
                                                     'iter_batches'):
                    if (where, name) in _GATHER_ALLOWLIST:
                        used.add((where, name))
                    else:
                        offenders.append('{}:{}: .{}( in {}'.format(
                            where, node.lineno, node.func.attr, name))
    assert not offenders, offenders
    assert used == set(_GATHER_ALLOWLIST), set(_GATHER_ALLOWLIST) - used
