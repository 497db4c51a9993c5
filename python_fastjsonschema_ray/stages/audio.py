"""Audio feature extraction over A6 PCM payloads — the audio analog of
``stages/decode.py`` (images) and ``FrameSampleStage`` (video).

``AudioFeatureStage`` emits one row per clip with frame-level features
aggregated to clip scalars: duration, RMS energy (mean/max over
512-sample frames, hop 256), zero-crossing rate, clipping fraction, and
a dominant-frequency estimate from one rFFT over the clip.  All pure
vectorized numpy per clip (strided framing via
``np.lib.stride_tricks.sliding_window_view``); per-clip cost is
O(n_samples), the Python loop is only over clips in the batch.

Scale: feature extraction is embarrassingly parallel — a task
``map_batches`` with small batches (PCM payloads are large); decoded
samples never leave the worker, only the feature scalars do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FRAME = 512
HOP = 256


def clip_features(samples: np.ndarray, sr: int) -> dict:
    """Features for one mono int16 clip — the per-clip kernel, exposed
    for oracle use in tests."""
    x = samples.astype(np.float64).ravel() / 32768.0
    n = x.size
    if n >= FRAME:
        frames = np.lib.stride_tricks.sliding_window_view(
            x, FRAME)[::HOP]
    else:
        frames = x[None, :]
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    zc = np.mean(np.abs(np.diff(np.signbit(frames).astype(np.int8),
                                axis=1)), axis=1)
    # int32 first: np.abs(int16(-32768)) overflows back to -32768.
    clip_frac = float(np.mean(
        np.abs(samples.ravel().astype(np.int32)) >= 32767))
    spec = np.abs(np.fft.rfft(x))
    dom_hz = float(np.argmax(spec[1:]) + 1) * sr / n if n > 2 else 0.0
    return {
        'duration_s': n / sr,
        'n_frames': int(frames.shape[0]),
        'rms_mean': float(rms.mean()),
        'rms_max': float(rms.max()),
        'zcr_mean': float(zc.mean()),
        'clip_frac': clip_frac,
        'dominant_hz': dom_hz,
    }


_FEATURES = ['duration_s', 'n_frames', 'rms_mean', 'rms_max',
             'zcr_mean', 'clip_frac', 'dominant_hz']


class AudioFeatureStage:
    """binary PCM in → one feature row per clip.  Malformed payloads emit
    ``ok=False`` with null features (visible, not dropped)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.audio import parse_audio_header

        col = batch.column('bytes').combine_chunks()
        ids = batch.column('audio_id').to_pylist()
        rows = {f: [] for f in _FEATURES}
        oks = []
        for i in range(batch.num_rows):
            ok = col[i].is_valid
            if ok:
                buf = col[i].as_buffer()      # zero-copy view
                data = np.frombuffer(buf, dtype=np.uint8)
                try:
                    sr, n, ch, off = parse_audio_header(
                        data[:64].tobytes(), payload_len=len(data))
                    samples = np.frombuffer(buf, dtype='<i2', offset=off,
                                            count=n * ch).reshape(n, ch)
                    # Mono mixdown for multi-channel clips.
                    mono = (samples[:, 0] if ch == 1
                            else samples.mean(axis=1).astype(np.int16))
                    feats = clip_features(mono, sr)
                except ValueError:
                    ok = False
            if ok:
                for f in _FEATURES:
                    rows[f].append(feats[f])
            else:
                for f in _FEATURES:
                    rows[f].append(None)
            oks.append(ok)
        cols = {'audio_id': pa.array(ids, type=pa.string()),
                'ok': pa.array(oks, type=pa.bool_())}
        cols['n_frames'] = pa.array(rows['n_frames'], type=pa.int32())
        for f in _FEATURES:
            if f != 'n_frames':
                cols[f] = pa.array(rows[f], type=pa.float64())
        order = ['audio_id', 'ok'] + _FEATURES
        return pa.table({k: cols[k] for k in order})


class ExternalAudioDecodeStage:
    """Production seam for real formats (wav/mp3/flac via soundfile /
    ffmpeg) — identical Ray surface; codec libraries absent here.

    STUB per FIXTURES.md: __call__ raises NotImplementedError."""

    def __init__(self):
        self._codec = None      # would be: soundfile / ffmpeg handle

    def __call__(self, batch: pa.Table) -> pa.Table:
        raise NotImplementedError(
            'real audio codecs are unavailable in this environment; use '
            'AudioFeatureStage with the synthetic A6 codec')


def audio_features(ds, *, batch_size=64):
    """Attach feature extraction as plain Ray tasks."""
    return ds.map_batches(AudioFeatureStage(), batch_format='pyarrow',
                          batch_size=batch_size)
