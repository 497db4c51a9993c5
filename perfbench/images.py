"""``images_validate``: the flagship hot pass over a seeded image+caption
table.

The table is generated here, vectorized per (w, h) shape, and cached per
(seed, rows) under ``perfbench/.cache``.  About 3% of rows carry one
planted defect each; the generator keeps the list.  Expected answers come
from that list (content rules) and from DuckDB SQL over the cached parquet
(schema rules), never from the package.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from common import CACHE, OP_TIMEOUT_S, deadline

ROWS = 120_000
FILE_ROWS = 15_000
BATCH_SIZE = 2048           # validation_pass's default batch size
KEEP_CACHED = 3             # image tables kept on disk

FMTS = ('ppm', 'raw', 'lossy')
FMT_P = (0.6, 0.25, 0.15)
CAPTIONS = ('sunset over mountains', 'a cat on a windowsill',
            'city skyline at night', 'forest path in autumn',
            'waves crashing on rocks', 'portrait of a dog')

# Planted defect -> (source, rule) it must produce.  'bad_fmt' also fails
# decoding, so it produces a content violation as well.
PLANTS = {
    'null_id': [('schema', 'type')],
    'bad_id': [('schema', 'pattern')],
    'bad_fmt': [('schema', 'enum'), ('content', 'decode')],
    'short_caption': [('schema', 'minLength')],
    'long_caption': [('schema', 'maxLength')],
    'truncated': [('content', 'decode')],
    'dims': [('content', 'dims')],
    'phash': [('content', 'phash')],
}
PLANT_RATE = 0.004          # per kind


def _phash(pixels, h, w):
    """8x8 average hash of (k, h, w, 3) images -> signed int64 (k,): the
    channel sum sampled on an 8x8 grid, one bit per cell above the mean."""
    ys = (np.arange(8) * h) // 8
    xs = (np.arange(8) * w) // 8
    block = pixels[:, ys][:, :, xs].sum(axis=3, dtype=np.int32).reshape(
        len(pixels), 64)
    bits = block > block.mean(axis=1, keepdims=True)
    packed = np.packbits(bits, axis=1)                 # (k, 8) big-endian
    return packed.view('>u8').reshape(-1).astype(np.uint64).view(np.int64)


def generate(seed, rows):
    """Returns (pyarrow.Table, planted) with planted = [(row, kind)]."""
    import pyarrow as pa

    rng = np.random.default_rng([seed, rows, 1])
    ws = rng.integers(8, 33, rows)
    hs = rng.integers(8, 33, rows)
    fmt_idx = rng.choice(3, rows, p=FMT_P)
    blobs = [None] * rows
    phash = np.zeros(rows, dtype=np.int64)
    shape_key = ws * 64 + hs
    order = np.argsort(shape_key, kind='stable')
    bounds = np.flatnonzero(np.diff(shape_key[order])) + 1
    for grp in np.split(order, bounds):
        w, h = int(ws[grp[0]]), int(hs[grp[0]])
        # Horizontal gradient plus noise, so the hash has structure.
        base = ((np.arange(w) * 255 // max(w - 1, 1))[None, :, None]
                * np.array([10, 6, 3]) // 10).astype(np.uint16)
        noise = rng.integers(0, 64, (len(grp), h, w, 3), dtype=np.uint16)
        pix = np.minimum(base[None] + noise, 255).astype(np.uint8)
        lossy = fmt_idx[grp] == 2
        stored = np.where(lossy[:, None, None, None], pix >> 2, pix)
        # The decoder hashes the stored bytes; for lossy rows that is the
        # quantized image, whose hash equals the decoded image's.
        phash[grp] = _phash(stored, h, w)
        ppm_hdr = b'P6 %d %d 255\n' % (w, h)
        lossy_hdr = b'L6 %d %d\n' % (w, h)
        hdrs = (ppm_hdr, b'', lossy_hdr)
        for j, r in enumerate(grp):
            blobs[r] = hdrs[fmt_idx[r]] + stored[j].tobytes()

    ids = ['img-%012d' % i for i in range(rows)]
    fmts = [FMTS[i] for i in fmt_idx]
    cap_idx = rng.integers(0, len(CAPTIONS), rows)
    captions = ['{} #{}'.format(CAPTIONS[c], i)
                for i, c in enumerate(cap_idx)]
    ws_decl = ws.copy()
    ph_decl = phash.copy()

    # One defect per planted row, rows drawn without replacement.
    kinds = list(PLANTS)
    per_kind = max(1, int(rows * PLANT_RATE))
    chosen = rng.choice(rows, per_kind * len(kinds), replace=False)
    planted = []
    non_raw = fmt_idx != 1
    for k, kind in enumerate(kinds):
        for r in chosen[k * per_kind:(k + 1) * per_kind]:
            r = int(r)
            if kind == 'dims' and not non_raw[r]:
                # A raw payload has no header, so a wrong width fails the
                # size check instead: plant on a headered row only.
                kind_here = 'truncated'
            else:
                kind_here = kind
            if kind_here == 'null_id':
                ids[r] = None
            elif kind_here == 'bad_id':
                ids[r] = 'IMG-%012d' % r
            elif kind_here == 'bad_fmt':
                fmts[r] = 'jpeg'
            elif kind_here == 'short_caption':
                captions[r] = 'x'
            elif kind_here == 'long_caption':
                captions[r] = 'y' * 600
            elif kind_here == 'truncated':
                blobs[r] = blobs[r][:-3]
            elif kind_here == 'dims':
                ws_decl[r] += 1
            elif kind_here == 'phash':
                ph_decl[r] ^= 1 << 5
            planted.append((r, kind_here))
    table = pa.table({
        'image_id': pa.array(ids, type=pa.string()),
        'bytes': pa.array(blobs, type=pa.binary()),
        'w': pa.array(ws_decl.astype(np.int32)),
        'h': pa.array(hs.astype(np.int32)),
        'fmt': pa.array(fmts, type=pa.string()),
        'caption': pa.array(captions, type=pa.string()),
        'phash': pa.array(ph_decl),
    })
    return table, sorted(planted)


def cached_table(seed, rows):
    """Directory of the cached parquet for (seed, rows), generating it if
    needed.  Returns (dir, generation seconds or 0.0 when cached)."""
    import pyarrow.parquet as pq

    d = os.path.join(CACHE, 'images-s{}-n{}'.format(seed, rows))
    done = os.path.join(d, 'planted.json')
    if os.path.exists(done):
        os.utime(done)
        return d, 0.0
    t = time.perf_counter()
    table, planted = generate(seed, rows)
    tmp = d + '.tmp'
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, 'data'))
    for i, start in enumerate(range(0, rows, FILE_ROWS)):
        pq.write_table(table.slice(start, FILE_ROWS),
                       os.path.join(tmp, 'data', 'part-%03d.parquet' % i))
    with open(os.path.join(tmp, 'planted.json'), 'w') as f:
        json.dump(planted, f)
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    _evict()
    # Finish writing back before anything is timed.
    os.sync()
    return d, time.perf_counter() - t


def _evict():
    entries = []
    for name in os.listdir(CACHE):
        marker = os.path.join(CACHE, name, 'planted.json')
        if name.startswith('images-') and os.path.exists(marker):
            entries.append((os.path.getmtime(marker), name))
    for _, name in sorted(entries)[:-KEEP_CACHED]:
        shutil.rmtree(os.path.join(CACHE, name), ignore_errors=True)


# ---------------------------------------------------------------------------
# Expected answers


def expected_violations(data_dir):
    """(key, source, rule) -> count, from DuckDB SQL (schema rules, first
    failing rule per row in property order, as fast-fail reports) and the
    planted list (content rules)."""
    import duckdb

    glob = os.path.join(data_dir, 'data', '*.parquet')
    con = duckdb.connect()
    rows = con.execute("""
        SELECT image_id, rule, count(*) FROM (
          SELECT image_id, CASE
            WHEN image_id IS NULL THEN 'type'
            WHEN NOT regexp_full_match(image_id, '^img-[0-9]{12}$')
              THEN 'pattern'
            WHEN w IS NULL OR h IS NULL THEN 'type'
            WHEN w < 1 THEN 'minimum' WHEN w > 4096 THEN 'maximum'
            WHEN h < 1 THEN 'minimum' WHEN h > 4096 THEN 'maximum'
            WHEN fmt IS NULL OR fmt NOT IN ('ppm', 'raw', 'lossy')
              THEN 'enum'
            WHEN caption IS NULL THEN 'type'
            WHEN length(caption) < 2 THEN 'minLength'
            WHEN length(caption) > 512 THEN 'maxLength'
            WHEN phash IS NULL THEN 'type'
          END AS rule
          FROM read_parquet(?))
        WHERE rule IS NOT NULL GROUP BY ALL
    """, [glob]).fetchall()
    con.close()
    out = {}
    for key, rule, n in rows:
        out[(key, 'schema', rule)] = out.get((key, 'schema', rule), 0) + n
    with open(os.path.join(data_dir, 'planted.json')) as f:
        planted = json.load(f)
    for r, kind in planted:
        for source, rule in PLANTS[kind]:
            if source != 'content':
                continue
            key = None if kind == 'null_id' else (
                'IMG-%012d' % r if kind == 'bad_id' else 'img-%012d' % r)
            out[(key, source, rule)] = out.get((key, source, rule), 0) + 1
    return out


def count_violations(table):
    """(key, source, rule) -> count of the engine's violation rows."""
    grouped = table.group_by(['key', 'source', 'rule']).aggregate(
        [([], 'count_all')])
    return {(k, s, r): n for k, s, r, n in zip(
        grouped.column('key').to_pylist(),
        grouped.column('source').to_pylist(),
        grouped.column('rule').to_pylist(),
        grouped.column('count_all').to_pylist())}


# ---------------------------------------------------------------------------
# Workload


class ImagesValidate:
    name = 'images_validate'
    uses_ray = True
    setup_samples = 2           # setup_s is their median
    unit_rows = 'rows'

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.rows = ROWS
        self.data_dir = None
        self.expected = None
        self.datasets = []          # datasets of the last pass

    def prepare(self, expected=True):
        self.data_dir, gen_s = cached_table(self.seed, self.rows)
        if expected:
            self.expected = expected_violations(self.data_dir)
        return {'generate_s': gen_s, 'rows': self.rows}

    def _glob(self):
        return os.path.join(self.data_dir, 'data')

    def load(self):
        """Imports the layers and opens the table lazily (part of setup)."""
        import pyarrow.parquet as pq
        import ray.data
        from python_fastjsonschema_ray.pipelines import flagship
        self.flagship = flagship
        self.ray_data = ray.data
        self.schema = pq.read_schema(os.path.join(
            self._glob(), 'part-000.parquet')).remove_metadata()

    def _read(self, files=None):
        paths = files or self._glob()
        return self.ray_data.read_parquet(paths, schema=self.schema)

    def warmup(self):
        """One untimed pass over the first file, so workers exist and their
        stage caches are full."""
        ds = self.flagship.validation_pass(self._read(
            [os.path.join(self._glob(), 'part-000.parquet')]))
        with deadline(OP_TIMEOUT_S):
            for _ in ds.iter_batches(batch_format='pyarrow',
                                     batch_size=None):
                pass

    def run_pass(self):
        """One timed pass.  Returns (rows, wall_s, outputs)."""
        import pyarrow as pa
        tr = self.tracer
        t = time.perf_counter()
        with tr.span('pass'), deadline(OP_TIMEOUT_S):
            ds = self.flagship.validation_pass(self._read())
            parts = []
            with tr.span('pipelines.flagship.validation_pass'):
                for b in ds.iter_batches(batch_format='pyarrow',
                                         batch_size=None):
                    parts.append(b.select(['key', 'source', 'rule']))
        wall = time.perf_counter() - t
        self.datasets = [ds]
        table = pa.concat_tables(parts) if parts else None
        return self.rows, wall, {'violations': table}

    def check(self, outputs):
        """List of mismatch descriptions (empty when correct)."""
        table = outputs['violations']
        got = count_violations(table) if table is not None else {}
        if got == self.expected:
            return []
        diff = set(got.items()) ^ set(self.expected.items())
        return ['images_validate: violation multiset differs on {} '
                '(key, source, rule) entries, e.g. {}'.format(
                    len(diff), sorted(diff, key=str)[:3])]

    def ops_per_pass(self):
        return 1

    def compile_validator(self):
        """Compiles the table spec the way each validation_pass worker
        does (ValidateAndDecodeStage's TableValidator)."""
        from python_fastjsonschema_ray.pipelines.validate import (
            TableValidator)
        TableValidator(self.flagship.IMAGE_TABLE_SPEC, self.schema,
                       key_column='image_id', fast_fail=True)

    # -- traced-run replay ---------------------------------------------------

    def replay(self, panel):
        """In-process replay of the same input through each layer's public
        function, on the same batches the pass uses."""
        import pyarrow.parquet as pq
        from python_fastjsonschema_ray.pipelines.validate import (
            TableValidator)
        from python_fastjsonschema_ray.stages.decode import DecodeCheckStage

        t = time.perf_counter()
        table = pq.read_table(self._glob(), schema=self.schema)
        read_s = time.perf_counter() - t
        batches = table.to_batches(max_chunksize=BATCH_SIZE)
        import pyarrow as pa
        batches = [pa.Table.from_batches([b]) for b in batches]
        n = table.num_rows

        tv = TableValidator(self.flagship.IMAGE_TABLE_SPEC, self.schema,
                            key_column='image_id', fast_fail=True)
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
        dec = DecodeCheckStage()
        t = time.perf_counter()
        for b in batches:
            dec(b)
        decode_s = time.perf_counter() - t
        stage = self.flagship.ValidateAndDecodeStage(self.schema,
                                                     fast_fail=True)
        t = time.perf_counter()
        for b in batches:
            stage(b)
        stage_s = time.perf_counter() - t

        panel['sources.read_s'] = read_s
        panel['functions.vector.us_per_row'] = validate_s / n * 1e6
        panel['pipelines.validate.violations_table.us_per_violation'] = \
            vt_s / max(nviol, 1) * 1e6
        panel['pipelines.validate.violations'] = nviol
        detail = {
            'stages.decode.us_per_row': decode_s / n * 1e6,
            'pipelines.flagship.stage.us_per_row': stage_s / n * 1e6,
        }
        # Layers the pass runs, replayed in-process on the same batches.
        self_s = {'sources.read_s': read_s,
                  'pipelines.flagship.stage_s': stage_s}
        groups = [(self.flagship.IMAGE_TABLE_SPEC,
                   table.slice(0, 5000).to_pylist())]
        return detail, self_s, groups
