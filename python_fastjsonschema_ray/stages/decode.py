"""Image decode / integrity stages (actor-pool ``map_batches``).

The decode step is the engine analog of the reference's only parser
transform (``contentEncoding``, ``fastjsonschema/draft07.py:94-112``):
a stateful stage that replaces encoded payloads with decoded values and
emits violations where decoding fails or the decoded content contradicts
the declared metadata (w/h mismatch, phash mismatch, PSNR under the lossy
bound).

Memory note: decoded pixels are ~4-50x larger than encoded payloads; run
this stage with a small ``batch_size`` and never materialize decoded pixels
into the output — only derived scalars (ok flags, computed dims, phash,
psnr) leave the stage.

Real-image decoding (JPEG/PNG via PIL / turbojpeg) is NOT available in this
sandbox; :class:`ExternalImageDecodeStage` documents the production plumbing
and raises ``NotImplementedError`` per FIXTURES.md — the Ray-side schema,
batching and actor signature are identical to the working synthetic codec
path below.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.images import decode_image, average_phash, psnr

DECODE_RESULT_FIELDS = [
    ('image_id', pa.string()),
    ('decode_ok', pa.bool_()),
    ('decoded_w', pa.int32()),
    ('decoded_h', pa.int32()),
    ('dims_match', pa.bool_()),
    ('phash_match', pa.bool_()),
    ('computed_phash', pa.int64()),
    ('psnr_db', pa.float64()),
    ('error', pa.string()),
]


class DecodeCheckStage:
    """Decode each image, verify declared (w, h) and phash against the
    decoded pixels, and compute the lossy-PSNR invariant.

    Batch-vectorized: headers parse per row (a few string ops), but the
    pixel work — the 8x8 phash gather — is three fancy-indexing reads
    (one per channel) over the batch's shared Arrow binary buffer
    (zero-copy) and one packbits for the whole batch.  Two exact
    identities make this possible: (a) phash bits are invariant under the
    lossy codec's affine decode p = 4q+2 (block > mean is
    order-preserving), so the hash is computed directly on the stored
    bytes; (b) re-quantizing a decoded lossy image reproduces it exactly,
    so the PSNR-vs-requantized check is +inf for every successfully
    decoded lossy row (the <40 dB violations the north rule cares about
    surface as decode/dims/phash failures).
    Rows whose header the fast path can't parse fall back to the per-row
    reference decode so error strings stay byte-identical."""

    def __init__(self, lossy_psnr_floor: float = 40.0):
        self.lossy_psnr_floor = lossy_psnr_floor

    def _fallback_row(self, blob, fmt, w, h):
        """(ok, error, pixels) via the reference scalar decode path."""
        try:
            return True, None, decode_image(blob, fmt, w, h)
        except Exception as exc:
            return False, str(exc), None

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Fully vectorized path: header parsing, magic/size checks and
        the phash gather all run as numpy array ops over the batch's
        shared Arrow binary buffer; ONLY anomalous rows (null blobs,
        unknown fmt, headers the clean digits-space-digits parse can't
        claim) drop to the per-row reference decode.  Any parse
        ambiguity routes to the fallback, whose error strings and
        results coincide with the fast path by construction
        (``decode_image`` uses the same messages), so outcomes are
        bit-identical to :meth:`_call_rowloop` — asserted by the
        differential test in tests/test_images.py."""
        import pyarrow.compute as pc

        arr = batch.column('bytes').combine_chunks()
        n = len(arr)
        if n == 0:
            return pa.table({name: pa.array([], type=t)
                             for name, t in DECODE_RESULT_FIELDS})
        off_dtype = (np.int64 if pa.types.is_large_binary(arr.type)
                     else np.int32)
        off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
            arr.offset:arr.offset + n + 1].astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) \
            if arr.buffers()[2] is not None else np.zeros(0, np.uint8)
        gdata = data if data.size else np.zeros(1, np.uint8)
        sizes = off[1:] - off[:-1]
        blob_null = (~np.asarray(arr.is_valid()) if arr.null_count
                     else np.zeros(n, dtype=bool))

        fmt_arr = batch.column('fmt').combine_chunks()

        def fmt_eq(f):
            return np.asarray(pc.fill_null(pc.equal(fmt_arr, f), False))

        is_raw = fmt_eq('raw') & ~blob_null
        is_ppm = fmt_eq('ppm') & ~blob_null
        is_lossy = fmt_eq('lossy') & ~blob_null

        w_arr = batch.column('w').combine_chunks()
        h_arr = batch.column('h').combine_chunks()
        ph_arr = batch.column('phash').combine_chunks()
        w_valid = np.asarray(pc.is_valid(w_arr))
        h_valid = np.asarray(pc.is_valid(h_arr))
        ph_valid = np.asarray(pc.is_valid(ph_arr))
        ws_np = np.asarray(pc.fill_null(w_arr.cast(pa.int64()), 0))
        hs_np = np.asarray(pc.fill_null(h_arr.cast(pa.int64()), 0))
        ph_np = np.asarray(pc.fill_null(ph_arr.cast(pa.int64()), 0))

        ok = np.zeros(n, dtype=bool)
        errs = [None] * n
        dw = np.zeros(n, dtype=np.int64)
        dh = np.zeros(n, dtype=np.int64)
        body = np.zeros(n, dtype=np.int64)
        slow_mask = ~(is_raw | is_ppm | is_lossy)

        # raw: size arithmetic only.
        r_need = is_raw & (~w_valid | ~h_valid)
        r_rest = is_raw & w_valid & h_valid
        # Float compare: junk int64 dims could wrap an int64 product into
        # a false equality; a float64 product only loses precision past
        # 2^53, where it vastly exceeds any real payload size anyway.
        with np.errstate(over='ignore'):
            r_bad = r_rest & (sizes.astype(np.float64)
                              != ws_np.astype(np.float64)
                              * hs_np.astype(np.float64) * 3.0)
        r_ok = r_rest & ~r_bad
        ok |= r_ok
        dw[r_ok] = ws_np[r_ok]
        dh[r_ok] = hs_np[r_ok]
        body[r_ok] = off[:-1][r_ok]
        for i in np.nonzero(r_need)[0]:
            errs[i] = 'raw needs dimensions'
        for i in np.nonzero(r_bad)[0]:
            errs[i] = 'raw payload size mismatch'

        # ppm/lossy: one 32-byte header gather for the whole batch, then
        # vectorized magic check + newline find + Horner digit parse.
        hdr_rows = np.nonzero(is_ppm | is_lossy)[0]
        if len(hdr_rows):
            o0 = off[:-1][hdr_rows]
            sz = sizes[hdr_rows]
            span = np.minimum(sz, 32)
            pos32 = np.arange(32, dtype=np.int64)
            hdr = gdata[np.minimum(o0[:, None] + pos32[None, :],
                                   gdata.size - 1)].astype(np.int64)
            hdr[pos32[None, :] >= span[:, None]] = 0
            m = len(hdr_rows)
            rowsel = np.arange(m)
            is_l = is_lossy[hdr_rows]
            magic_ok = ((hdr[:, 0] == np.where(is_l, 76, 80))    # L / P
                        & (hdr[:, 1] == 54) & (hdr[:, 2] == 32))  # '6 '
            nl = (hdr == 10).argmax(axis=1)
            has_nl = hdr[rowsel, nl] == 10

            def digit_run(start):
                # Clean [0-9]{1,7} run; anything longer/messier routes
                # to the reference fallback (whose int() parse and
                # error strings coincide anyway).  7-digit cap keeps
                # w*h*3 far inside int64.
                val = np.zeros(m, dtype=np.int64)
                p = start.astype(np.int64).copy()
                got = np.zeros(m, dtype=bool)
                active = np.ones(m, dtype=bool)
                for _ in range(7):
                    c = hdr[rowsel, np.minimum(p, 31)]
                    isd = active & (p < nl) & (c >= 48) & (c <= 57)
                    val = np.where(isd, val * 10 + (c - 48), val)
                    got |= isd
                    p = np.where(isd, p + 1, p)
                    active = isd
                c_end = hdr[rowsel, np.minimum(p, 31)]
                overlong = active & (p < nl) & (c_end >= 48) & (c_end <= 57)
                return val, p, got & ~overlong

            w_val, p1, w_clean = digit_run(np.full(m, 3, dtype=np.int64))
            w_term = (p1 < nl) & (hdr[rowsel, np.minimum(p1, 31)] == 32)
            h_val, p2, h_clean = digit_run(p1 + 1)
            h_term = (p2 == nl) | ((p2 < nl)
                                   & (hdr[rowsel, np.minimum(p2, 31)] == 32))
            parsed = magic_ok & has_nl & w_clean & w_term \
                & h_clean & h_term
            good_size = (sz - (nl + 1)) == w_val * h_val * 3
            okm = parsed & good_size
            gi = hdr_rows[okm]
            ok[gi] = True
            dw[gi] = w_val[okm]
            dh[gi] = h_val[okm]
            body[gi] = (o0 + nl + 1)[okm]
            for j in np.nonzero(~magic_ok)[0]:
                errs[hdr_rows[j]] = 'bad {} magic'.format(
                    'lossy' if is_l[j] else 'ppm')
            for j in np.nonzero(parsed & ~good_size)[0]:
                errs[hdr_rows[j]] = '{} payload size mismatch'.format(
                    'lossy' if is_l[j] else 'ppm')
            slow_mask[hdr_rows[magic_ok & ~parsed]] = True

        # Zero-area guard: w*h == 0 passes every size check (0 == 0*3)
        # but would put hv-1 = -1 into the phash gather below —
        # negative buffer positions, uncaught IndexError.  Route to an
        # explicit error instead (matches decode_image's scalar path).
        za = ok & (dw * dh == 0)
        if za.any():
            ok[za] = False
            for i in np.nonzero(za)[0]:
                errs[i] = 'zero-area image'

        # Reference fallback for anomalous rows — exact error strings.
        slow_pixels = {}
        for i in np.nonzero(slow_mask)[0]:
            blob = arr[i].as_py()
            row_ok, err, pixels = self._fallback_row(
                blob, fmt_arr[i].as_py(), w_arr[i].as_py(),
                h_arr[i].as_py())
            ok[i] = row_ok
            errs[i] = err
            if row_ok:
                slow_pixels[i] = pixels
                dh[i], dw[i] = pixels.shape[:2]

        # Vectorized 8x8 phash over every fast-path-decoded image: three
        # uint8 gathers from the shared buffer (one per channel, summed in
        # int32) and one packbits.  ``gray > sum / 64`` is tested as
        # ``gray * 64 > sum``: the same bits, since sum / 64 (sum at most
        # 64 * 765) is exact in float64.
        computed = np.zeros(n, dtype=np.int64)
        fast_ok = ok.copy()
        for i in slow_pixels:
            fast_ok[i] = False
        vi = np.nonzero(fast_ok)[0]
        if len(vi):
            wv, hv, bs = dw[vi], dh[vi], body[vi]
            k = np.arange(8, dtype=np.int64)
            ys = np.minimum((hv[:, None] * k) // 8, hv[:, None] - 1)
            xs = np.minimum((wv[:, None] * k) // 8, wv[:, None] - 1)
            pos = (bs[:, None, None]
                   + (ys[:, :, None] * wv[:, None, None]
                      + xs[:, None, :]) * 3).reshape(len(vi), 64)
            gray = data[pos].astype(np.int32)
            gray += data[pos + 1]
            gray += data[pos + 2]
            bits = (gray << 6) > gray.sum(axis=1)[:, None]
            packed = np.packbits(bits, axis=1)
            computed[vi] = packed.view(np.dtype('>u8')).reshape(-1) \
                .astype(np.uint64).view(np.int64)
        for i, pixels in slow_pixels.items():
            computed[i] = average_phash(pixels)

        dims_match = ok & w_valid & h_valid & (dw == ws_np) & (dh == hs_np)
        phash_match = ok & ph_valid & (computed == ph_np)
        psnr_np = np.full(n, np.nan)
        lossy_any = fmt_eq('lossy')
        psnr_np[fast_ok & lossy_any] = np.inf
        for i, pixels in slow_pixels.items():
            if fmt_arr[i].as_py() == 'lossy':
                p = pixels
                q = (p.astype(np.int16) - 2) >> 2
                rq = ((q.astype(np.uint16) << 2) + 2) \
                    .clip(0, 255).astype(np.uint8)
                psnr_np[i] = psnr(p, rq)

        dw_out = np.where(ok, dw, 0).astype(np.int32)
        dh_out = np.where(ok, dh, 0).astype(np.int32)
        return pa.table({
            'image_id': batch.column('image_id').combine_chunks()
            .cast(pa.string()),
            'decode_ok': pa.array(ok),
            'decoded_w': pa.array(dw_out, mask=~ok),
            'decoded_h': pa.array(dh_out, mask=~ok),
            'dims_match': pa.array(dims_match),
            'phash_match': pa.array(phash_match),
            'computed_phash': pa.array(computed, mask=~ok),
            'psnr_db': pa.array(psnr_np, mask=np.isnan(psnr_np)),
            'error': pa.array(errs, type=pa.string()),
        })

    def _call_rowloop(self, batch: pa.Table) -> pa.Table:
        """Per-row fast-parse reference implementation (the pre-round-4
        path) — kept as the differential oracle for the vectorized
        ``__call__``; not used in production."""
        arr = batch.column('bytes').combine_chunks()
        n = len(arr)
        if n == 0:
            return pa.table({name: pa.array([], type=t)
                             for name, t in DECODE_RESULT_FIELDS})
        off_dtype = (np.int64 if pa.types.is_large_binary(arr.type)
                     else np.int32)
        off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
            arr.offset:arr.offset + n + 1].astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        null_mask = None
        if arr.null_count:
            null_mask = ~np.asarray(arr.is_valid())
        ids = batch.column('image_id').to_pylist()
        ws = batch.column('w').to_pylist()
        hs = batch.column('h').to_pylist()
        fmts = batch.column('fmt').to_pylist()
        phashes = batch.column('phash').to_pylist()

        ok = np.zeros(n, dtype=bool)
        errs = [None] * n
        dw = np.zeros(n, dtype=np.int64)
        dh = np.zeros(n, dtype=np.int64)
        body = np.zeros(n, dtype=np.int64)
        slow = []                       # rows needing the reference decode
        for i in range(n):
            o0, o1 = off[i], off[i + 1]
            f = fmts[i]
            try:
                if null_mask is not None and null_mask[i]:
                    raise _FastParseMiss
                if f == 'raw':
                    if ws[i] is None or hs[i] is None:
                        errs[i] = 'raw needs dimensions'
                        continue
                    if o1 - o0 != ws[i] * hs[i] * 3:
                        errs[i] = 'raw payload size mismatch'
                        continue
                    dw[i], dh[i], body[i] = ws[i], hs[i], o0
                elif f == 'ppm' or f == 'lossy':
                    head = data[o0:min(o0 + 32, o1)].tobytes()
                    magic = b'P6 ' if f == 'ppm' else b'L6 '
                    if not head.startswith(magic):
                        errs[i] = 'bad {} magic'.format(f)
                        continue
                    nl = head.index(b'\n')          # miss → fallback
                    parts = head[3:nl].split()
                    w_, h_ = int(parts[0]), int(parts[1])
                    bstart = o0 + nl + 1
                    if o1 - bstart != w_ * h_ * 3:
                        errs[i] = '{} payload size mismatch'.format(f)
                        continue
                    dw[i], dh[i], body[i] = w_, h_, bstart
                else:
                    raise _FastParseMiss
                ok[i] = True
                if dw[i] * dh[i] == 0:      # see __call__'s za guard
                    ok[i] = False
                    errs[i] = 'zero-area image'
            except Exception:
                slow.append(i)

        # Reference fallback for anomalous rows (nulls, unknown fmt,
        # headers past 32 bytes, unparseable ints) — exact error strings.
        slow_pixels = {}
        for i in slow:
            blob = arr[i].as_py()
            row_ok, err, pixels = self._fallback_row(blob, fmts[i],
                                                     ws[i], hs[i])
            ok[i] = row_ok
            errs[i] = err
            if row_ok:
                slow_pixels[i] = pixels
                dh[i], dw[i] = pixels.shape[:2]

        # Vectorized 8x8 phash over every fast-path-decoded image: one
        # gather from the shared buffer, one channel sum, one packbits.
        computed = np.zeros(n, dtype=np.int64)
        fast_ok = ok.copy()
        for i in slow_pixels:
            fast_ok[i] = False
        vi = np.nonzero(fast_ok)[0]
        if len(vi):
            wv, hv, bs = dw[vi], dh[vi], body[vi]
            k = np.arange(8, dtype=np.int64)
            ys = np.minimum((hv[:, None] * k) // 8, hv[:, None] - 1)
            xs = np.minimum((wv[:, None] * k) // 8, wv[:, None] - 1)
            pos = (bs[:, None, None]
                   + (ys[:, :, None] * wv[:, None, None]
                      + xs[:, None, :]) * 3)
            rgb = data[pos[..., None] + np.arange(3, dtype=np.int64)]
            gray = rgb.sum(axis=3, dtype=np.int32).reshape(len(vi), 64)
            bits = gray > gray.mean(axis=1)[:, None]
            packed = np.packbits(bits, axis=1)
            computed[vi] = packed.view(np.dtype('>u8')).reshape(-1) \
                .astype(np.uint64).view(np.int64)
        for i, pixels in slow_pixels.items():
            computed[i] = average_phash(pixels)

        dims_match = np.zeros(n, dtype=bool)
        phash_match = np.zeros(n, dtype=bool)
        psnr_db = [None] * n
        for i in np.nonzero(ok)[0]:
            dims_match[i] = (ws[i] is not None and hs[i] is not None
                             and dw[i] == ws[i] and dh[i] == hs[i])
            phash_match[i] = (phashes[i] is not None
                              and int(computed[i]) == phashes[i])
            if fmts[i] == 'lossy':
                if i in slow_pixels:
                    p = slow_pixels[i]
                    q = (p.astype(np.int16) - 2) >> 2
                    rq = ((q.astype(np.uint16) << 2) + 2) \
                        .clip(0, 255).astype(np.uint8)
                    psnr_db[i] = psnr(p, rq)
                else:
                    psnr_db[i] = float('inf')   # identity: requantize(4q+2)=q

        return pa.table({
            'image_id': pa.array(ids, type=pa.string()),
            'decode_ok': pa.array(ok, type=pa.bool_()),
            'decoded_w': pa.array(
                [int(dw[i]) if ok[i] else None for i in range(n)],
                type=pa.int32()),
            'decoded_h': pa.array(
                [int(dh[i]) if ok[i] else None for i in range(n)],
                type=pa.int32()),
            'dims_match': pa.array(dims_match, type=pa.bool_()),
            'phash_match': pa.array(phash_match, type=pa.bool_()),
            'computed_phash': pa.array(
                [int(computed[i]) if ok[i] else None for i in range(n)],
                type=pa.int64()),
            'psnr_db': pa.array(psnr_db, type=pa.float64()),
            'error': pa.array(errs, type=pa.string()),
        })


class _FastParseMiss(Exception):
    pass


class ExternalImageDecodeStage:
    """Production plumbing for real formats (JPEG/PNG/WebP) — identical Ray
    surface (binary in, derived scalars out, actor pool, small batches);
    the codec libraries are not installed in this sandbox.

    STUB per FIXTURES.md: __call__ raises NotImplementedError.  Swap
    ``self._decode`` for PIL/turbojpeg in production."""

    def __init__(self):
        self._decode = None     # would be: PIL.Image.open / turbojpeg handle

    def __call__(self, batch: pa.Table) -> pa.Table:
        raise NotImplementedError(
            'real-image codecs are unavailable in this environment; use '
            'DecodeCheckStage with the synthetic ppm/raw/lossy codecs')


class ResizeStage:
    """Multimodal transform stub with real plumbing: decode → resize (nearest
    neighbour, pure numpy) → re-encode as 'raw'.  Demonstrates the decoded-
    payload memory discipline (small batch_size, binary in/binary out)."""

    def __init__(self, target_w: int = 16, target_h: int = 16):
        self.tw = target_w
        self.th = target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column('bytes').to_pylist()
        fmts = batch.column('fmt').to_pylist()
        ws = batch.column('w').to_pylist()
        hs = batch.column('h').to_pylist()
        out = []
        for i in range(batch.num_rows):
            try:
                pixels = decode_image(blobs[i], fmts[i], ws[i], hs[i])
            except Exception:
                out.append(None)
                continue
            h, w = pixels.shape[:2]
            ys = (np.arange(self.th) * h) // self.th
            xs = (np.arange(self.tw) * w) // self.tw
            resized = pixels[ys][:, xs]
            out.append(resized.tobytes())
        return pa.table({
            'image_id': batch.column('image_id'),
            'bytes': pa.array(out, type=pa.binary()),
            'w': pa.array([self.tw] * batch.num_rows, type=pa.int32()),
            'h': pa.array([self.th] * batch.num_rows, type=pa.int32()),
            'fmt': pa.array(['raw'] * batch.num_rows, type=pa.string()),
        })


def decode_check(ds, *, concurrency=None, batch_size=1024):
    """Attach the decode/integrity stage; decoded pixels never leave
    the workers.  Task-based with a per-worker stage cache by default
    (no actor-pool spin-up — the pattern that beat pools 10x on this
    engine); pass ``concurrency`` to pin an actor pool instead."""
    from .dedup import _worker_cached

    def check(batch):
        stage = _worker_cached(('decode_check',), DecodeCheckStage)
        return stage(batch)

    kwargs = {'batch_format': 'pyarrow', 'batch_size': batch_size}
    if concurrency is not None:
        kwargs['concurrency'] = concurrency
        return ds.map_batches(DecodeCheckStage, **kwargs)
    return ds.map_batches(check, **kwargs)


class FrameSampleStage:
    """Frame sampling over V6 video payloads (``sources/videos.py``):
    every ``stride``-th frame up to ``max_frames``, one OUTPUT ROW PER
    SAMPLED FRAME — (video_id, frame_idx, ts_s, w, h, phash[, bytes]).

    Each frame is sliced from the batch's Arrow binary buffer by offset
    (``as_buffer`` + ``np.frombuffer`` — zero-copy) so cost is
    O(sampled frames), never O(video): the property that makes k-of-n
    frame sampling cheap on a 100-TB corpus.  Malformed payloads emit a
    single ``frame_idx = -1`` row with a null phash (visible, not
    silently dropped); ``decode_check`` is the integrity stage proper.

    Stateless per batch but shaped as a callable class for the actor
    pool: real codecs hold per-actor handles in ``__init__``.  Video
    payloads are large — size ``batch_size`` small (16-64) so
    batch x concurrency fits worker heaps."""

    def __init__(self, stride: int = 4, max_frames: int = None,
                 emit_bytes: bool = False):
        if stride < 1:
            raise ValueError('stride must be >= 1')
        self.stride = stride
        self.max_frames = max_frames
        self.emit_bytes = emit_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.videos import parse_video_header

        col = batch.column('bytes').combine_chunks()
        ids = batch.column('video_id').to_pylist()
        out_id, out_idx, out_ts = [], [], []
        out_w, out_h, out_ph, out_b = [], [], [], []
        for i in range(batch.num_rows):
            vid = ids[i]
            if not col[i].is_valid:
                out_id.append(vid); out_idx.append(-1); out_ts.append(None)
                out_w.append(None); out_h.append(None); out_ph.append(None)
                out_b.append(None)
                continue
            buf = col[i].as_buffer()          # zero-copy view
            data = np.frombuffer(buf, dtype=np.uint8)
            try:
                w, h, n, fps, off = parse_video_header(
                    data[:64].tobytes(), payload_len=len(data))
            except ValueError:
                out_id.append(vid); out_idx.append(-1); out_ts.append(None)
                out_w.append(None); out_h.append(None); out_ph.append(None)
                out_b.append(None)
                continue
            size = w * h * 3
            idxs = range(0, n, self.stride)
            if self.max_frames is not None:
                idxs = list(idxs)[:self.max_frames]
            for k in idxs:
                frame = data[off + k * size: off + (k + 1) * size] \
                    .reshape(h, w, 3)
                out_id.append(vid)
                out_idx.append(k)
                out_ts.append(k / fps)
                out_w.append(w)
                out_h.append(h)
                out_ph.append(average_phash(frame))
                if self.emit_bytes:
                    out_b.append(frame.tobytes())
                else:
                    out_b.append(None)
        cols = {
            'video_id': pa.array(out_id, type=pa.string()),
            'frame_idx': pa.array(out_idx, type=pa.int32()),
            'ts_s': pa.array(out_ts, type=pa.float64()),
            'w': pa.array(out_w, type=pa.int32()),
            'h': pa.array(out_h, type=pa.int32()),
            'phash': pa.array(out_ph, type=pa.int64()),
        }
        if self.emit_bytes:
            cols['bytes'] = pa.array(out_b, type=pa.binary())
        return pa.table(cols)


class ExternalVideoDecodeStage:
    """Production seam for real containers (mp4/webm via pyav/ffmpeg) —
    identical Ray surface to :class:`FrameSampleStage` (binary in, flat
    frame rows out, actor pool, small batches); the codec libraries are
    not installed in this sandbox.

    STUB per FIXTURES.md: __call__ raises NotImplementedError.  Swap in
    a per-actor pyav handle opened in ``__init__`` in production."""

    def __init__(self):
        self._codec = None      # would be: av.open / ffmpeg subprocess pool

    def __call__(self, batch: pa.Table) -> pa.Table:
        raise NotImplementedError(
            'real video codecs are unavailable in this environment; use '
            'FrameSampleStage with the synthetic V6 codec')


def frame_sample(ds, *, stride=4, max_frames=None, emit_bytes=False,
                 concurrency=None, batch_size=32):
    """Attach frame sampling as an actor-pool stage (small batches:
    video payloads are large; decoded frames never leave the workers
    unless ``emit_bytes``)."""
    kwargs = {'batch_format': 'pyarrow', 'batch_size': batch_size}
    if concurrency is None:
        import ray
        concurrency = max(1, int(ray.cluster_resources().get('CPU', 2)) // 2)
    kwargs['concurrency'] = concurrency
    return ds.map_batches(
        FrameSampleStage(stride=stride, max_frames=max_frames,
                         emit_bytes=emit_bytes), **kwargs)
