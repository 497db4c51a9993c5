"""Flagship pipeline: end-to-end validation of the image+caption table
(BASELINE.json north rule).

Stages (all streaming, Arrow batches, plain Ray tasks; stateful steps
build once per worker process through ``stages/per_worker.PerWorker``):

1. **Schema validation** — IMAGE_TABLE_SPEC compiled once per worker and
   batch schema (type / range / enum / pattern / required), violations as
   structured rows.
2. **Decode + integrity** — decode bytes per fmt; verify declared dims and
   phash against decoded pixels (content-level checks the schema cannot see).
3. **Uniqueness** — duplicate (phash, image_id) detection via pre-aggregated
   groupby (hash-partitioned shuffle on the composite key).
4. **Referential** — phash membership against a broadcast reference key set.
5. **Column stats + drift** — count/null/min/max/HLL/t-digest per column and
   PSI/KS on the width distribution vs a reference profile.

``run_flagship`` returns a report dict of violation counts per check plus
the violations dataset; callers write it with ``write_parquet`` for the
resumable per-partition output layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.per_worker import PerWorker
from .constraints import (
    check_unique,
    column_stats,
    drift_check,
    grouped_agg,
    histogram_profile,
)
from .validate import validate_dataset

IMAGE_TABLE_SPEC = {
    'type': 'object',
    'properties': {
        'image_id': {'type': 'string', 'pattern': '^img-[0-9]{12}$'},
        'bytes': {},                                  # binary payload: content checks in decode stage
        'w': {'type': 'integer', 'minimum': 1, 'maximum': 4096},
        'h': {'type': 'integer', 'minimum': 1, 'maximum': 4096},
        'fmt': {'enum': ['ppm', 'raw', 'lossy']},
        'caption': {'type': 'string', 'minLength': 2, 'maxLength': 512},
        'phash': {'type': 'integer'},
    },
    'required': ['image_id', 'bytes', 'w', 'h', 'fmt', 'caption', 'phash'],
}


# Stage calls per Ray map task (see validation_pass).  ``bench.py --sweep``
# times the pass at several values.
_SLICES_PER_TASK = 8


def validation_pass(ds, *, fast_fail=True, batch_size=2048):
    """The flagship's heavy single pass: schema validation + decode/
    integrity checks as stateless tasks over zero-copy Arrow batches,
    emitting unified violation rows.

    ``batch_size`` is the rows per stage call, which bounds the decode
    stage's memory.  Each Ray task carries ``8 * batch_size`` rows and runs
    the stage on consecutive ``batch_size``-row slices, concatenating their
    violation rows in input order.  A map task costs milliseconds of fixed
    Ray overhead whatever its size, and Ray does not fuse this map into a
    parquet read that splits its files into more blocks, so fatter tasks
    pay that overhead fewer times.  The trade: a small table gets fewer
    tasks than a many-CPU host could run at once (120k rows make 8 tasks),
    while a 2.4M-row table still gets about 147."""
    built = PerWorker(ValidateAndDecodeStage, fast_fail=fast_fail)

    def run_batch(batch: pa.Table) -> pa.Table:
        stage = built.for_schema(batch.schema)
        n = batch.num_rows
        step = batch_size or n
        if n <= step:
            return stage(batch)
        return pa.concat_tables([stage(batch.slice(i, step))
                                 for i in range(0, n, step)])

    return ds.map_batches(run_batch, batch_format='pyarrow',
                          batch_size=batch_size and (_SLICES_PER_TASK
                                                     * batch_size),
                          zero_copy_batch=True)


class ValidateAndDecodeStage:
    """ONE stage doing the heavy per-row work in a single streaming pass:
    compiled-schema validation + decode/integrity checks, emitting unified
    violation rows (source='schema'|'content').  Combining the two stages
    eliminates a second read and keeps the pipeline compute-bound (the
    scaling-efficiency lever)."""

    def __init__(self, schema: pa.Schema, fast_fail=True):
        from ..stages.decode import DecodeCheckStage
        from .validate import TableValidator
        self.validator = TableValidator(IMAGE_TABLE_SPEC, schema,
                                        key_column='image_id',
                                        fast_fail=fast_fail)
        self.decoder = DecodeCheckStage()

    def __call__(self, batch: pa.Table) -> pa.Table:
        result = self.validator.validate_batch(batch)
        vt = self.validator.violations_table(batch, result)
        res = self.decoder(batch)
        # Assemble with Arrow takes/concats: Python materialization is
        # bounded by the VIOLATION count, never the batch size.
        ids_arr = res.column('image_id').combine_chunks().cast(pa.string())
        dec_ok = np.asarray(res.column('decode_ok')).astype(bool)
        dims_ok = np.asarray(res.column('dims_match')).astype(bool)
        ph_ok = np.asarray(res.column('phash_match')).astype(bool)
        bad_decode = np.nonzero(~dec_ok)[0]
        bad_dims = np.nonzero(dec_ok & ~dims_ok)[0]
        bad_phash = np.nonzero(dec_ok & dims_ok & ~ph_ok)[0]

        key_parts = [vt.column('key').combine_chunks().cast(pa.string())]
        rule_parts = [vt.column('rule').combine_chunks().cast(pa.string())]
        msg_parts = [vt.column('message').combine_chunks().cast(pa.string())]
        n_content = 0
        if len(bad_decode):
            idx = pa.array(bad_decode, type=pa.int64())
            errs = res.column('error').take(idx).to_pylist()
            key_parts.append(ids_arr.take(idx))
            rule_parts.append(pa.array(['decode'] * len(bad_decode),
                                       type=pa.string()))
            msg_parts.append(pa.array(
                ['data.bytes failed to decode: {}'.format(e) for e in errs],
                type=pa.string()))
            n_content += len(bad_decode)
        for idx_np, rule, msg in (
                (bad_dims, 'dims', 'data.w/data.h declared dims do not '
                                   'match decoded payload'),
                (bad_phash, 'phash',
                 'data.phash does not match decoded content hash')):
            if not len(idx_np):
                continue
            idx = pa.array(idx_np, type=pa.int64())
            key_parts.append(ids_arr.take(idx))
            rule_parts.append(pa.array([rule] * len(idx_np),
                                       type=pa.string()))
            msg_parts.append(pa.array([msg] * len(idx_np),
                                      type=pa.string()))
            n_content += len(idx_np)
        source = pa.array(['schema'] * vt.num_rows
                          + ['content'] * n_content, type=pa.string())
        return pa.table({
            'key': pa.concat_arrays(key_parts),
            'source': source,
            'rule': pa.concat_arrays(rule_parts),
            'message': pa.concat_arrays(msg_parts),
        })


def run_flagship(ds, *, reference_phashes=None, width_profile=None,
                 width_edges=None, stats=True,
                 near_dup_dist=None):
    """Full validation run over an image+caption Dataset.

    ``reference_phashes``: iterable/array of allowed phash keys (referential
    check); None skips the check.  ``width_profile``/``width_edges``: drift
    reference for the ``w`` column; None skips drift.  ``near_dup_dist``:
    when set, also reports perceptual near-duplicate pairs — images whose
    64-bit phashes are within this hamming distance (pigeonhole-banded LSH,
    one shuffle; SURVEY §2.5 'phash hamming buckets')."""
    report = {}

    # 1+2. Schema validation + decode/integrity in ONE streaming pass
    # (pixels stay in workers; only violation rows leave).
    violations = validation_pass(ds)
    vdf = grouped_agg(violations, ['source', 'rule'], {'n': (None, 'count')},
                      num_buckets=1).to_pandas()
    report['schema_violations'] = {
        r: int(n) for s, r, n in
        zip(vdf['source'], vdf['rule'], vdf['n']) if s == 'schema'}
    report['content_violations'] = {
        r: int(n) for s, r, n in
        zip(vdf['source'], vdf['rule'], vdf['n']) if s == 'content'}
    schema_violations = violations

    # 3. Uniqueness on (phash, image_id).
    dups = check_unique(ds.select_columns(['phash', 'image_id']),
                        ['phash', 'image_id'])
    report['duplicate_keys'] = dups.count()

    # 3b. Perceptual near-dup (phash hamming) — optional.
    if near_dup_dist is not None:
        from ..stages.dedup import hamming_near_dup
        pairs = hamming_near_dup(
            ds.select_columns(['image_id', 'phash']),
            'image_id', 'phash', max_dist=near_dup_dist)
        report['near_dup_pairs'] = pairs.count()

    # 4. Referential: phash ∈ reference key set (the exact anti-join).
    if reference_phashes is not None:
        import ray.data
        from .constraints import check_referential
        ref = ray.data.from_arrow(pa.table({'phash': pa.array(
            list(reference_phashes), type=pa.int64())}))
        orphans = check_referential(
            ds.select_columns(['image_id', 'phash']), 'phash', ref, 'phash')
        report['referential_orphans'] = orphans.count()

    # 5. Stats + drift.
    if stats:
        report['stats'] = column_stats(
            ds.select_columns(['w', 'h', 'phash']), ['w', 'h', 'phash'])
    if width_profile is not None and width_edges is not None:
        report['drift'] = drift_check(ds, 'w', width_profile, width_edges)
        # Per-group drift over the deliberately skewed fmt key: each fmt's
        # width distribution vs the global one (mergeable histogram
        # partials; the hot keys never shuffle rows).
        from .constraints import drift_by_group
        report['drift_by_fmt'] = drift_by_group(
            ds.select_columns(['w', 'fmt']), 'w', 'fmt', width_edges)

    return report, schema_violations


def make_width_profile(ds, edges=None):
    edges = edges if edges is not None else np.linspace(0, 64, 33)
    return histogram_profile(ds, 'w', edges), edges
