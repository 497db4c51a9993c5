"""``lineitem_constraints``: column rules, uniqueness, a both-sides-large
referential check and column stats over a lineitem/orders/customer star.

The star is generated here, once per (seed, rows), and cached.  Its columns
follow the profile of the repository's TPC-H-like ``sf0.1`` test data
column by column (see ``generate``) at a quarter of its size; ``--data-dir``
runs the workload on such a directory instead.  Expected answers come from
DuckDB SQL over the same parquet.  The optional referential probe runs the
driver query ``referential_orders`` (broadcast ``check_referential``) once at
the end of the run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

import numpy as np

from common import CACHE, OP_TIMEOUT_S, deadline

ROWS = 150_000              # lineitem rows: sf0.1 has 600,000
KEEP_CACHED = 3
PROBE_TIMEOUT_S = 30.0
ORPHAN_RATE = 0.001         # planted lineitem rows with no order
BAD_CUSTOMER_RATE = 0.005   # planted orders with no customer

# Five column rules, collect mode.  Four run as vector rules; the
# lookahead pattern is outside RE2, which forces the row-kernel tier.  On
# the sf0.1 profile about 0.59 violation rows per input row result
# (linestatus 1/2, quantity 2/50, discount 1/20); the tax and returnflag
# rules run and never fire.
SPEC = {'properties': {
    'l_quantity': {'type': 'number', 'minimum': 1, 'maximum': 48},
    'l_discount': {'type': 'number', 'maximum': 0.09},
    'l_tax': {'type': 'number', 'minimum': 0, 'maximum': 0.08},
    'l_returnflag': {'enum': ['A', 'N', 'R']},
    'l_linestatus': {'type': 'string', 'pattern': '^(?!F)'},
}}
RULE_SQL = [
    ("l_quantity < 1", 'minimum'),
    ("l_quantity > 48", 'maximum'),
    ("l_discount > 0.09::DOUBLE", 'maximum'),
    ("l_tax < 0", 'minimum'),
    ("l_tax > 0.08::DOUBLE", 'maximum'),
    ("l_returnflag NOT IN ('A', 'N', 'R')", 'enum'),
    ("starts_with(l_linestatus, 'F')", 'pattern'),
]
VALIDATE_COLUMNS = ['l_orderkey'] + list(SPEC['properties'])
KEY_COLUMNS = ['l_orderkey', 'l_linenumber']
STATS_COLUMNS = ['l_quantity', 'l_extendedprice', 'l_discount']
TABLES = ('lineitem', 'orders', 'customer')


def _days(rng, lo, n_days, size):
    return (np.datetime64(lo) + rng.integers(0, n_days, size)).astype(
        'datetime64[us]')


def generate(seed, rows, out_dir):
    """Writes lineitem/orders/customer parquet; returns row counts.

    Every column is drawn the way the sf0.1 test data's is (each checked
    with DuckDB against the sf0.1 tables): uniform order keys over
    rows / 4 orders, so about 40% of (l_orderkey, l_linenumber) keys repeat;
    line numbers 1-7; integer quantities 1-50; extended prices uniform on
    [900, 105000) and independent of quantity; discount and tax uniform on
    [0, 0.10] and [0, 0.08] rounded to cents; return flag and line status
    uniform; one row group per file, rows in random key order.  On top of
    that profile, ORPHAN_RATE of the lineitem rows point at no order and
    BAD_CUSTOMER_RATE of the orders at no customer (sf0.1 has none), so the
    referential checks have rows to find.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng([seed, rows, 2])
    n = rows
    n_orders = n // 4
    n_cust = max(10, n_orders // 10)
    l_ok = rng.integers(0, n_orders, n)
    orph = rng.choice(n, max(1, int(n * ORPHAN_RATE)), replace=False)
    l_ok[orph] = rng.integers(n_orders, 2 * n_orders, len(orph))
    lineitem = pa.table({
        'l_orderkey': l_ok,
        'l_partkey': rng.integers(0, max(1, n // 30), n),
        'l_suppkey': rng.integers(0, max(1, n // 600), n),
        'l_linenumber': rng.integers(1, 8, n).astype(np.int32),
        'l_quantity': rng.integers(1, 51, n).astype(np.float64),
        'l_extendedprice': np.round(rng.uniform(900, 105000, n), 2),
        'l_discount': np.round(rng.uniform(0, 0.10, n), 2),
        'l_tax': np.round(rng.uniform(0, 0.08, n), 2),
        'l_returnflag': np.array(['R', 'A', 'N'])[rng.integers(0, 3, n)],
        'l_linestatus': np.array(['O', 'F'])[rng.integers(0, 2, n)],
        'l_shipdate': pa.array(_days(rng, '1995-01-02', 2500, n)),
    })
    cust = rng.integers(0, n_cust, n_orders)
    bad = rng.choice(n_orders, max(1, int(n_orders * BAD_CUSTOMER_RATE)),
                     replace=False)
    cust[bad] = rng.integers(n_cust, 2 * n_cust, len(bad))
    orders = pa.table({
        'o_orderkey': np.arange(n_orders, dtype=np.int64),
        'o_custkey': cust,
        'o_orderstatus': np.array(['O', 'F', 'P'])[
            rng.integers(0, 3, n_orders)],
        'o_totalprice': np.round(rng.uniform(1000, 500000, n_orders), 2),
        'o_orderdate': pa.array(_days(rng, '1995-01-01', 2405, n_orders)),
        'o_orderpriority': np.array(['1-URGENT', '2-HIGH', '3-MEDIUM',
                                     '4-NOT SPECIFIED', '5-LOW'])[
            rng.integers(0, 5, n_orders)],
    })
    customer = pa.table({
        'c_custkey': np.arange(n_cust, dtype=np.int64),
        'c_name': ['Customer#%09d' % i for i in range(n_cust)],
        'c_nationkey': rng.integers(0, 25, n_cust).astype(np.int32),
        'c_acctbal': np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        'c_mktsegment': np.array(['AUTOMOBILE', 'BUILDING', 'FURNITURE',
                                  'HOUSEHOLD', 'MACHINERY'])[
            rng.integers(0, 5, n_cust)],
    })
    for name, table in zip(TABLES, (lineitem, orders, customer)):
        pq.write_table(table, os.path.join(out_dir, name + '.parquet'),
                       row_group_size=table.num_rows)
    return {'lineitem': n, 'orders': n_orders, 'customer': n_cust}


def cached_tables(seed, rows):
    d = os.path.join(CACHE, 'lineitem-sf01-s{}-n{}'.format(seed, rows))
    done = os.path.join(d, 'counts.json')
    if os.path.exists(done):
        os.utime(done)
        with open(done) as f:
            return d, json.load(f), 0.0
    t = time.perf_counter()
    tmp = d + '.tmp'
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    counts = generate(seed, rows, tmp)
    with open(os.path.join(tmp, 'counts.json'), 'w') as f:
        json.dump(counts, f)
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    entries = []
    for name in os.listdir(CACHE):
        marker = os.path.join(CACHE, name, 'counts.json')
        if name.startswith('lineitem-') and os.path.exists(marker):
            entries.append((os.path.getmtime(marker), name))
    for _, name in sorted(entries)[:-KEEP_CACHED]:
        shutil.rmtree(os.path.join(CACHE, name), ignore_errors=True)
    # Finish writing back before anything is timed.
    os.sync()
    return d, counts, time.perf_counter() - t


# ---------------------------------------------------------------------------
# Expected answers (DuckDB SQL over the same parquet)


def expected_answers(data_dir):
    import duckdb
    con = duckdb.connect()
    for t in TABLES:
        con.execute("CREATE VIEW {0} AS SELECT * FROM read_parquet('{1}')"
                    .format(t, os.path.join(data_dir, t + '.parquet')))
    union = ' UNION ALL '.join(
        "SELECT CAST(l_orderkey AS VARCHAR) AS key, '{}' AS rule "
        "FROM lineitem WHERE {}".format(rule, cond)
        for cond, rule in RULE_SQL)
    violations = dict(((k, r), n) for k, r, n in con.execute(
        'SELECT key, rule, count(*) FROM ({}) GROUP BY ALL'.format(union)
    ).fetchall())
    dups = sorted(con.execute("""
        SELECT l_orderkey, l_linenumber, count(*) FROM lineitem
        GROUP BY ALL HAVING count(*) > 1""").fetchall())
    orphans = sorted(con.execute("""
        SELECT l_orderkey, l_linenumber FROM lineitem
        WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders)""").fetchall())
    stats = {}
    for c in STATS_COLUMNS:
        cnt, nn, mn, mx, mean, nd = con.execute(
            'SELECT count(*), count({0}), min({0}), max({0}), avg({0}), '
            'count(DISTINCT {0}) FROM lineitem'.format(c)).fetchone()
        stats[c] = {'count': cnt, 'nulls': cnt - nn, 'min': mn, 'max': mx,
                    'mean': mean, 'distinct': nd}
    probe = sorted(con.execute("""
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)""").fetchall())
    con.close()
    return {'violations': violations, 'dups': dups, 'orphans': orphans,
            'stats': stats, 'probe': probe}


def _key_rule_counts(table):
    g = table.group_by(['key', 'rule']).aggregate([([], 'count_all')])
    return dict(zip(zip(g.column('key').to_pylist(),
                        g.column('rule').to_pylist()),
                    g.column('count_all').to_pylist()))


def _stats_ok(got, want):
    if got['count'] != want['count'] or got['nulls'] != want['nulls']:
        return False
    # column_stats reports min and max as strings.
    if float(got['min']) != want['min'] or float(got['max']) != want['max']:
        return False
    if not math.isclose(got.get('mean') or 0.0, want['mean'] or 0.0,
                        rel_tol=1e-9):
        return False
    # HyperLogLog estimate: within 5% of the exact distinct count.
    return abs(got['approx_distinct'] - want['distinct']) \
        <= 0.05 * want['distinct'] + 1


# ---------------------------------------------------------------------------
# Workload


class LineitemConstraints:
    name = 'lineitem_constraints'
    uses_ray = True
    setup_samples = 2           # setup_s is their median
    unit_rows = 'rows'

    def __init__(self, seed, tracer, probe=False, data_dir=None):
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.given_dir = data_dir
        self.datasets = []

    def prepare(self, expected=True):
        import pyarrow.parquet as pq
        if self.given_dir:
            self.data_dir, gen_s = self.given_dir, 0.0
            counts = {t: pq.ParquetFile(os.path.join(
                self.data_dir, t + '.parquet')).metadata.num_rows
                for t in TABLES}
        else:
            self.data_dir, counts, gen_s = cached_tables(self.seed, ROWS)
        self.rows = counts['lineitem']
        if expected:
            self.expected = expected_answers(self.data_dir)
        return {'generate_s': gen_s, 'rows': self.rows,
                'orders': counts['orders'], 'customer': counts['customer'],
                'data_dir': self.given_dir or 'generated'}

    def load(self):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data
        from python_fastjsonschema_ray.pipelines import constraints, validate
        self.ray_data = ray.data
        self.constraints = constraints
        self.validate = validate
        self.schemas = {t: pq.read_schema(os.path.join(
            self.data_dir, t + '.parquet')).remove_metadata()
            for t in ('lineitem', 'orders')}
        full = self.schemas['lineitem']
        self._validate_schema = pa.schema(
            [full.field(c) for c in VALIDATE_COLUMNS])

    def _read(self, table, columns):
        import pyarrow as pa
        full = self.schemas[table]
        return self.ray_data.read_parquet(
            os.path.join(self.data_dir, table + '.parquet'),
            columns=columns,
            schema=pa.schema([full.field(c) for c in columns]))

    def warmup(self):
        """Validates a small slice of lineitem once, so a worker exists
        and its plan cache holds the spec (the checks keep no per-worker
        state)."""
        li = self._read('lineitem', VALIDATE_COLUMNS).limit(4096)
        with deadline(OP_TIMEOUT_S):
            self.validate.validate_dataset(
                li, SPEC, mode='violations', key_column='l_orderkey',
                fast_fail=False).count()

    def run_pass(self):
        import pyarrow as pa
        tr = self.tracer
        out = {}
        t = time.perf_counter()
        with tr.span('pass'), deadline(OP_TIMEOUT_S):
            with tr.span('pipelines.validate.validate_dataset'):
                v = self.validate.validate_dataset(
                    self._read('lineitem', VALIDATE_COLUMNS), SPEC,
                    mode='violations', key_column='l_orderkey',
                    fast_fail=False)
                parts = [b.select(['key', 'rule']) for b in v.iter_batches(
                    batch_format='pyarrow', batch_size=None)]
            with tr.span('pipelines.constraints.check_unique'):
                u = self.constraints.check_unique(
                    self._read('lineitem', KEY_COLUMNS), KEY_COLUMNS)
                dups = list(u.iter_batches(batch_format='pyarrow',
                                           batch_size=None))
            with tr.span('pipelines.constraints.check_referential_large'):
                r = self.constraints.check_referential_large(
                    self._read('lineitem', KEY_COLUMNS), 'l_orderkey',
                    self._read('orders', ['o_orderkey']), 'o_orderkey')
                orphans = list(r.iter_batches(batch_format='pyarrow',
                                              batch_size=None))
            with tr.span('pipelines.constraints.column_stats'):
                stats = self.constraints.column_stats(
                    self._read('lineitem', STATS_COLUMNS), STATS_COLUMNS)
        wall = time.perf_counter() - t
        self.datasets = [v, u, r]
        out['violations'] = pa.concat_tables(parts) if parts else None
        out['dups'] = dups
        out['orphans'] = orphans
        out['stats'] = stats
        return self.rows, wall, out

    def check(self, outputs):
        """Mismatch descriptions, one per failed operation."""
        exp = self.expected
        bad = []
        table = outputs['violations']
        got = _key_rule_counts(table) if table is not None else {}
        if got != exp['violations']:
            bad.append('validate_dataset: (key, rule) multiset differs')
        dups = sorted(t for b in outputs['dups'] if b.num_rows
                      for t in zip(b.column('l_orderkey').to_pylist(),
                                   b.column('l_linenumber').to_pylist(),
                                   b.column('n').to_pylist()))
        if dups != exp['dups']:
            bad.append('check_unique: {} duplicate keys, expected {}'.format(
                len(dups), len(exp['dups'])))
        orphans = sorted(t for b in outputs['orphans'] if b.num_rows
                         for t in zip(b.column('l_orderkey').to_pylist(),
                                      b.column('l_linenumber').to_pylist()))
        if orphans != exp['orphans']:
            bad.append('check_referential_large: {} orphans, expected {}'
                       .format(len(orphans), len(exp['orphans'])))
        for c in STATS_COLUMNS:
            if not _stats_ok(outputs['stats'][c], exp['stats'][c]):
                bad.append('column_stats: {} differs: {} vs {}'.format(
                    c, outputs['stats'][c], exp['stats'][c]))
                break
        return bad

    def ops_per_pass(self):
        return 4

    def compile_validator(self):
        """Compiles the spec the way each validate_dataset worker does."""
        self.validate.TableValidator(
            SPEC, self._validate_schema, key_column='l_orderkey',
            fast_fail=False)

    def run_probe(self):
        """The driver query ``referential_orders`` (broadcast
        check_referential), once, under its own limit.  Returns
        (ok, note)."""
        import __ray_entry__ as entry
        t = time.perf_counter()
        with deadline(PROBE_TIMEOUT_S):
            df = entry.queries()['referential_orders'](self.data_dir)
        got = sorted(zip(df['o_orderkey'].astype(int).tolist(),
                         df['o_custkey'].astype(int).tolist()))
        if got != self.expected['probe']:
            return False, 'referential_orders: {} rows, expected {}'.format(
                len(got), len(self.expected['probe']))
        return True, 'referential_orders ok in {:.2f} s'.format(
            time.perf_counter() - t)

    # -- traced-run replay ---------------------------------------------------

    def replay(self, panel):
        import pyarrow as pa
        import pyarrow.parquet as pq
        from python_fastjsonschema_ray.pipelines.constraints import (
            ColumnStatsStage)
        from python_fastjsonschema_ray.pipelines.validate import (
            TableValidator)

        path = os.path.join(self.data_dir, 'lineitem.parquet')
        t = time.perf_counter()
        table = pq.read_table(path).replace_schema_metadata(None)
        read_s = time.perf_counter() - t
        n = table.num_rows
        vcols = table.select(VALIDATE_COLUMNS)
        batches = [pa.Table.from_batches([b])
                   for b in vcols.to_batches(max_chunksize=4096)]
        tv = TableValidator(SPEC, vcols.schema, key_column='l_orderkey',
                            fast_fail=False)
        validate_s = vt_s = 0.0
        nviol = 0
        for b in batches:
            t = time.perf_counter()
            res = tv.validate_batch(b)
            t1 = time.perf_counter()
            vt = tv.violations_table(b, res)
            validate_s += t1 - t
            vt_s += time.perf_counter() - t1
            nviol += vt.num_rows
        detail = {}
        for col, rule in SPEC['properties'].items():
            one = TableValidator({'properties': {col: rule}}, vcols.schema,
                                 key_column='l_orderkey', fast_fail=False)
            t = time.perf_counter()
            for b in batches:
                one.validate_batch(b)
            detail['functions.vector.rule.{}.us_per_row'.format(col)] = \
                (time.perf_counter() - t) / n * 1e6
        stage = ColumnStatsStage(STATS_COLUMNS)
        t = time.perf_counter()
        for b in table.select(STATS_COLUMNS).to_batches(
                max_chunksize=65536):
            stage(pa.Table.from_batches([b]))
        stats_s = time.perf_counter() - t

        panel['sources.read_s'] = read_s
        panel['functions.vector.us_per_row'] = validate_s / n * 1e6
        panel['pipelines.validate.violations_table.us_per_violation'] = \
            vt_s / max(nviol, 1) * 1e6
        panel['pipelines.validate.violations'] = nviol
        self_s = {'sources.read_s': read_s,
                  'pipelines.validate.validate_s': validate_s,
                  'pipelines.validate.violations_table_s': vt_s,
                  'pipelines.constraints.column_stats_stage_s': stats_s}
        groups = [(SPEC, vcols.slice(0, 20000).to_pylist())]
        return detail, self_s, groups
