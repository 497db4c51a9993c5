"""Synthetic V6 video codec + FrameSampleStage plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from python_fastjsonschema_ray.sources.videos import (
    decode_frame, encode_video, frame_phash, parse_video_header,
    video_batch, video_content)


def test_encode_decode_roundtrip():
    c = video_content(7)
    blob = encode_video(c['frames'], c['fps'])
    w, h, n, fps, off = parse_video_header(blob)
    assert (w, h, n, fps) == (c['w'], c['h'], c['n_frames'], c['fps'])
    for k in (0, n // 2, n - 1):
        np.testing.assert_array_equal(decode_frame(blob, k),
                                      c['frames'][k])


def test_header_only_parse_with_payload_len():
    c = video_content(3)
    blob = encode_video(c['frames'], c['fps'])
    w, h, n, fps, off = parse_video_header(blob[:64], payload_len=len(blob))
    assert (w, h, n) == (c['w'], c['h'], c['n_frames'])


def test_malformed_headers_raise():
    c = video_content(1)
    blob = encode_video(c['frames'], c['fps'])
    for bad in (b'XX' + blob[2:], blob[:-1], blob + b'\x00',
                b'V6 0 8 4 8 255\n'):
        with pytest.raises(ValueError):
            parse_video_header(bad)
    with pytest.raises(ValueError):
        decode_frame(blob, c['n_frames'])


def test_video_batch_deterministic_and_sharded():
    t1 = video_batch(10, 5)
    t2 = video_batch(10, 5)
    assert t1.equals(t2)
    # Shard independence: rows 12-13 generated alone match the slice.
    sub = video_batch(12, 2)
    assert sub.column('bytes').to_pylist() == \
        t1.slice(2, 2).column('bytes').to_pylist()


def test_frame_sample_stage_vs_ground_truth(ray_session):
    from python_fastjsonschema_ray.sources.videos import video_dataset
    from python_fastjsonschema_ray.stages.decode import frame_sample
    n_videos = 24
    ds = video_dataset(n_videos, shard_rows=8)
    out = frame_sample(ds, stride=3, batch_size=8).to_pandas()
    expected_rows = sum(
        len(range(0, video_content(i)['n_frames'], 3))
        for i in range(n_videos))
    assert len(out) == expected_rows
    assert (out['frame_idx'] % 3 == 0).all()
    # Spot-check phashes against the per-(video, frame) oracle.
    for vid, k, ph in out[['video_id', 'frame_idx', 'phash']] \
            .sample(10, random_state=0).itertuples(index=False):
        i = int(vid.split('-')[1])
        assert ph == frame_phash(i, k)
    # ts_s = frame_idx / fps.
    row = out.iloc[0]
    i = int(row.video_id.split('-')[1])
    assert row.ts_s == row.frame_idx / video_content(i)['fps']


def test_frame_sample_malformed_and_null_rows(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.decode import FrameSampleStage
    good = video_batch(0, 1)
    t = pa.table({
        'video_id': pa.array(['ok', 'trunc', 'null']),
        'bytes': pa.array([good.column('bytes')[0].as_py(),
                           b'V6 garbage', None], type=pa.binary()),
    })
    out = ray.data.from_arrow(t).map_batches(
        FrameSampleStage(stride=2), batch_format='pyarrow').to_pandas()
    bad = out[out['frame_idx'] == -1]
    assert sorted(bad['video_id']) == ['null', 'trunc']
    assert bad['phash'].isna().all()
    assert (out[out['video_id'] == 'ok']['frame_idx'] >= 0).all()


def test_frame_sample_emit_bytes_and_max_frames(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.decode import FrameSampleStage
    t = video_batch(5, 1)
    out = ray.data.from_arrow(t).map_batches(
        FrameSampleStage(stride=1, max_frames=2, emit_bytes=True),
        batch_format='pyarrow').to_pandas()
    assert list(out['frame_idx']) == [0, 1]
    c = video_content(5)
    assert out.iloc[1]['bytes'] == c['frames'][1].tobytes()
