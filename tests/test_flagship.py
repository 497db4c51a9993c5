"""End-to-end flagship pipeline over the synthetic image+caption table."""

import pytest


@pytest.fixture(scope='module')
def image_ds(ray_session):
    from python_fastjsonschema_ray.sources.images import image_dataset
    return image_dataset(2000, seed=42, violation_rate=0.01,
                         shard_size=500).materialize()


def test_flagship_report(image_ds):
    from python_fastjsonschema_ray.pipelines.flagship import run_flagship
    # Reference key set = all non-negative phashes (planted orphans are -1).
    phashes = [r['phash'] for r in
               image_ds.select_columns(['phash']).take_all()
               if r['phash'] is not None and r['phash'] >= 0]
    report, violations = run_flagship(image_ds, reference_phashes=phashes)

    sv = report['schema_violations']
    # Planted: null image_id (type), bad fmt (enum), short caption (minLength).
    assert sv.get('type', 0) > 0
    assert sv.get('enum', 0) > 0
    assert sv.get('minLength', 0) > 0

    cv = report['content_violations']
    assert cv.get('dims', 0) > 0          # planted dim mismatches

    assert report['duplicate_keys'] > 0    # planted (phash, image_id) dups
    assert report['referential_orphans'] > 0

    stats = report['stats']
    assert stats['w']['count'] == 2000
    assert 1 <= float(stats['w']['min'])

    # Combined violation rows carry key/source/rule/message.
    sample = violations.take(1)[0]
    assert set(sample) >= {'key', 'source', 'rule', 'message'}


def test_flagship_drift(image_ds, ray_session):
    import numpy as np
    from python_fastjsonschema_ray.pipelines.flagship import (
        make_width_profile, run_flagship)
    from python_fastjsonschema_ray.sources.images import image_dataset
    profile, edges = make_width_profile(image_ds)
    # Same generator, different rows → same distribution, no drift.
    other = image_dataset(1000, seed=99, violation_rate=0.0, shard_size=500)
    report, _ = run_flagship(other, width_profile=profile, width_edges=edges,
                             stats=False)
    assert not report['drift']['drifted'], report['drift']


def test_image_table_reference_parity(reference):
    """North-rule invariant: per-row pass/fail verdicts AND full violation
    payloads on the image+caption table must match the reference validating
    each row as a document against IMAGE_TABLE_SPEC."""
    from python_fastjsonschema_ray.pipelines.flagship import IMAGE_TABLE_SPEC
    from python_fastjsonschema_ray.sources.images import image_batch
    from .test_vector_parity import assert_table_parity
    table = image_batch(0, 1500, seed=42, violation_rate=0.01)
    for fast_fail in (True, False):
        assert_table_parity(reference, IMAGE_TABLE_SPEC, table,
                            fast_fail=fast_fail)


def _planted_image_table(n_rows, boundaries):
    """Clean synthetic rows with one schema or content defect planted at
    each row index in ``boundaries``."""
    from python_fastjsonschema_ray.sources.images import image_batch
    cols = image_batch(0, n_rows, seed=7, violation_rate=0).to_pydict()
    edits = [('image_id', 'bad-id'), ('caption', 'x'), ('fmt', 'jpeg'),
             ('w', 4097), ('image_id', None), ('phash', 12345),
             ('bytes', b'P6 1 1\n')]
    for j, row in enumerate(boundaries):
        column, value = edits[j % len(edits)]
        cols[column][row] = value
    import pyarrow as pa
    return pa.table(cols, schema=image_batch(0, 1, seed=7).schema)


def _violation_rows(table):
    return sorted(zip(*(table.column(c).to_pylist()
                        for c in ('key', 'source', 'rule', 'message'))),
                  key=repr)


def test_validation_pass_matches_stage_per_slice(ray_session):
    """Tasks carry 8 * batch_size rows and run the stage per batch_size
    slice; the violation rows equal the stage's over the same slices."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.pipelines.flagship import (
        ValidateAndDecodeStage, validation_pass)
    batch_size, n_rows = 32, 700           # 256-row tasks, 3 of them
    boundaries = [0, 31, 32, 63, 255, 256, 257, 511, 512, 640, 699]
    table = _planted_image_table(n_rows, boundaries)
    stage = ValidateAndDecodeStage(table.schema)
    expected = pa.concat_tables([stage(table.slice(i, batch_size))
                                 for i in range(0, n_rows, batch_size)])
    assert expected.num_rows > len(boundaries)
    blocks = [table.slice(i, 100) for i in range(0, n_rows, 100)]
    got = validation_pass(ray.data.from_arrow(blocks),
                          batch_size=batch_size)
    got = pa.concat_tables(got.iter_batches(batch_format='pyarrow',
                                            batch_size=None))
    assert _violation_rows(got) == _violation_rows(expected)

    empty = validation_pass(ray.data.from_arrow(table.slice(0, 0)),
                            batch_size=batch_size)
    assert empty.take_all() == []
