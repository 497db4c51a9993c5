"""Synthetic A6 audio codec + AudioFeatureStage plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from python_fastjsonschema_ray.sources.audio import (
    audio_batch, audio_content, decode_audio, encode_audio,
    parse_audio_header)
from python_fastjsonschema_ray.stages.audio import clip_features


def test_encode_decode_roundtrip():
    c = audio_content(11)
    blob = encode_audio(c['samples'], c['sample_rate'])
    samples, sr = decode_audio(blob)
    assert sr == c['sample_rate']
    np.testing.assert_array_equal(samples[:, 0], c['samples'])


def test_header_only_parse_with_payload_len():
    c = audio_content(4)
    blob = encode_audio(c['samples'], c['sample_rate'])
    sr, n, ch, off = parse_audio_header(blob[:64], payload_len=len(blob))
    assert (sr, n, ch) == (c['sample_rate'], c['n_samples'], 1)


def test_malformed_headers_raise():
    c = audio_content(2)
    blob = encode_audio(c['samples'], c['sample_rate'])
    for bad in (b'XX' + blob[2:], blob[:-1], blob + b'\x00',
                b'A6 0 100 1 16\n'):
        with pytest.raises(ValueError):
            parse_audio_header(bad)


def test_clip_features_physics():
    """Dominant frequency lands on the strongest tone; the planted
    clipped clip shows a clipping fraction, clean clips none."""
    clean = audio_content(1)       # i % 16 != 0 -> not clipped
    f = clip_features(clean['samples'], clean['sample_rate'])
    assert abs(f['dominant_hz'] - clean['f1']) < 10.0
    assert f['clip_frac'] == 0.0
    assert f['duration_s'] == clean['n_samples'] / clean['sample_rate']
    clipped = audio_content(16)    # i % 16 == 0 -> amp 1.4, clips
    fc = clip_features(clipped['samples'], clipped['sample_rate'])
    assert fc['clip_frac'] > 0.01


def test_audio_batch_deterministic():
    assert audio_batch(5, 3).equals(audio_batch(5, 3))


def test_audio_feature_stage_vs_oracle(ray_session):
    from python_fastjsonschema_ray.sources.audio import audio_dataset
    from python_fastjsonschema_ray.stages.audio import audio_features
    n = 48
    ds = audio_dataset(n, shard_rows=16)
    out = audio_features(ds, batch_size=16).to_pandas()
    assert len(out) == n and out['ok'].all()
    by_id = out.set_index('audio_id')
    for i in (0, 7, 16, 31):
        c = audio_content(i)
        exp = clip_features(c['samples'], c['sample_rate'])
        row = by_id.loc['aud-%012d' % i]
        for k, v in exp.items():
            assert row[k] == pytest.approx(v), (i, k)


def test_audio_feature_stage_malformed(ray_session):
    import ray.data
    from python_fastjsonschema_ray.stages.audio import AudioFeatureStage
    good = audio_batch(0, 1)
    t = pa.table({
        'audio_id': pa.array(['ok', 'bad', 'null']),
        'bytes': pa.array([good.column('bytes')[0].as_py(),
                           b'A6 junk', None], type=pa.binary())})
    out = ray.data.from_arrow(t).map_batches(
        AudioFeatureStage(), batch_format='pyarrow').to_pandas()
    assert sorted(out[~out['ok']]['audio_id']) == ['bad', 'null']
    assert out[~out['ok']]['rms_mean'].isna().all()
    assert out[out['ok']]['rms_mean'].notna().all()
