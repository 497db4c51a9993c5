"""Text-analysis stages for large-scale training-data pipelines:
language ID, quality scoring, token counting, document fingerprinting.

All stages are ``map_batches`` callable classes: regexes and stopword tables
compile once per worker in ``__init__``; per-batch work is pandas/numpy
vectorized where the kernel exists, tight per-row loops with precompiled
state otherwise.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

_WS_TOKEN = re.compile(r'\S+')
# GPT2-style pre-tokenizer shape (contractions / words / punct / spaces),
# simplified to stdlib `re` (no \p classes).
_BPE_ISH = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+")
_ALPHA = re.compile(r'[A-Za-z]')
_PUNCT = re.compile(r'[!-/:-@\[-`{-~]')
_CJK = re.compile(r'[一-鿿㐀-䶿]')

STOPWORDS = {
    'en': {'the', 'and', 'of', 'to', 'a', 'in', 'is', 'it', 'that', 'was',
           'for', 'on', 'with', 'as', 'his', 'they', 'at', 'be', 'this'},
    'de': {'der', 'die', 'das', 'und', 'ist', 'ich', 'nicht', 'ein', 'mit',
           'auf', 'für', 'von', 'zu', 'den', 'sich', 'dem', 'auch', 'es'},
    'fr': {'le', 'la', 'les', 'et', 'est', 'je', 'pas', 'un', 'une', 'avec',
           'pour', 'de', 'du', 'des', 'que', 'qui', 'dans', 'il', 'au'},
    'es': {'el', 'la', 'los', 'las', 'y', 'es', 'no', 'un', 'una', 'con',
           'para', 'de', 'del', 'que', 'en', 'se', 'por', 'su', 'al'},
    # Added after the original four so the argmax tie-break (insertion
    # order) never steals a tie from the longer-established tables.
    'it': {'il', 'che', 'non', 'per', 'sono', 'della', 'anche', 'come',
           'gli', 'più', 'nel', 'alla', 'questo', 'hanno', 'essere'},
    'pt': {'não', 'uma', 'são', 'está', 'você', 'mais', 'como', 'dos',
           'das', 'pelo', 'pela', 'isso', 'muito', 'já', 'também'},
    'nl': {'het', 'een', 'niet', 'aan', 'ook', 'maar', 'voor', 'zijn',
           'dat', 'ik', 'naar', 'heeft', 'wordt', 'deze', 'bij'},
}


def _explode_token_lists(tok_lists):
    """Flatten per-doc token lists into one object array plus padded
    cumulative offsets (csum[starts], csum[ends] segment the flat array)."""
    n = len(tok_lists)
    counts = np.fromiter(map(len, tok_lists), dtype=np.int64, count=n)
    total = int(counts.sum())
    flat = np.empty(total, dtype=object)
    pos = 0
    for toks in tok_lists:
        flat[pos:pos + len(toks)] = toks
        pos += len(toks)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return flat, counts, bounds


def _segment_sum(values, bounds):
    """Per-document sums of a flat per-token value array via one int64/
    float64 prefix sum (the fast segmented reduction on this numpy
    build)."""
    csum = np.zeros(len(values) + 1,
                    dtype=np.float64 if values.dtype.kind == 'f'
                    else np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[bounds[1:]] - csum[bounds[:-1]]


class TokenCountStage:
    """Whitespace token count (oracle-matched: DuckDB
    ``regexp_split_to_array + list_filter``) plus an optional BPE-ish
    subword estimate.

    ``n_tokens`` is one vectorized ``str.count`` pass.  The subword
    estimate still walks regex matches per row (its count is defined by
    the scanner's alternation semantics, which have no closed-form
    vectorization); pass ``subwords=False`` to skip it in pipelines that
    only need the whitespace count."""

    def __init__(self, column='text', subwords=True):
        self.column = column
        self.subwords = subwords

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.column].fillna('')
        batch['n_tokens'] = texts.str.count(_WS_TOKEN.pattern).astype('int64')
        if self.subwords:
            batch['n_subwords'] = [
                sum(1 for m in _BPE_ISH.finditer(t)
                    if not m.group().isspace())
                for t in texts]
        return batch


class QualityStage:
    """Cheap quality heuristics: length, alphabetic/punctuation ratios,
    stopword ratio, mean word length, composite score in [0, 1]."""

    def __init__(self, column='text'):
        self.column = column
        self.stop_en = STOPWORDS['en']

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.column].fillna('')
        n_chars = texts.str.len()
        alpha = texts.str.count(_ALPHA.pattern)
        punct = texts.str.count(_PUNCT.pattern)
        batch['n_chars'] = n_chars
        batch['alpha_ratio'] = (alpha / n_chars.clip(lower=1)).round(6)
        batch['punct_ratio'] = (punct / n_chars.clip(lower=1)).round(6)
        # Stopword/word-length ratios: flatten the batch's tokens once,
        # one C-level set-membership pass + per-token lengths, then
        # prefix-sum segmented reductions per document (no per-word
        # Python in the hot path).
        flat, counts, bounds = _explode_token_lists(
            [t.lower().split() for t in texts])
        denom = np.maximum(counts, 1).astype(np.float64)
        hits = pd.Series(flat, dtype=object).isin(self.stop_en).to_numpy()
        stop_ratio = _segment_sum(hits.astype(np.int64), bounds) / denom
        wlens = np.fromiter(map(len, flat), dtype=np.int64, count=len(flat))
        mean_wl = _segment_sum(wlens, bounds) / denom
        batch['stopword_ratio'] = stop_ratio
        batch['mean_word_len'] = mean_wl
        # Composite: favor mid-length, alphabetic, some stopwords.
        length_score = np.clip(n_chars / 200.0, 0, 1)
        batch['quality_score'] = (
            0.4 * batch['alpha_ratio'] + 0.3 * length_score
            + 0.3 * np.clip(stop_ratio * 4, 0, 1)).round(6)
        return batch


_LANG_WORD = re.compile(r'[a-zà-öø-ÿ]+')   # full Latin-1 letter range

# Non-Latin scripts identified by codepoint-range ratio, checked IN
# ORDER before the generic-CJK zh fallback: kana decides Japanese even
# when kanji (CJK) dominates the character count, Hangul decides
# Korean, and the alphabetic scripts each own their range.  (threshold
# is lower for kana because Japanese prose mixes kanji + kana.)
_SCRIPT_LANGS = (
    ('ja', re.compile(r'[぀-ヿ]'), 0.05),
    ('ko', re.compile(r'[가-힯ᄀ-ᇿ]'), 0.2),
    ('ru', re.compile(r'[Ѐ-ӿ]'), 0.2),
    ('ar', re.compile(r'[؀-ۿݐ-ݿ]'), 0.2),
    ('he', re.compile(r'[֐-׿]'), 0.2),
    ('el', re.compile(r'[Ͱ-Ͽ]'), 0.2),
    ('hi', re.compile(r'[ऀ-ॿ]'), 0.2),
)


class LangIdStage:
    """Stopword/script-based language ID over
    {en, de, fr, es, it, pt, nl, zh, ja, ko, ru, ar, he, el, hi}.

    Script codepoint-range ratios decide the non-Latin languages
    (kana → ja before the generic-CJK zh check, Hangul → ko, Cyrillic →
    ru, Arabic → ar, Hebrew → he, Greek → el, Devanagari → hi);
    otherwise the Latin language with the most stopword hits wins (en
    on ties/no-hits).  The batch path flattens the batch's words once
    and scores all languages with C-level membership passes + segmented
    prefix sums; ``classify`` is the scalar reference (tests assert
    batch ≡ scalar)."""

    def __init__(self, column='text'):
        self.column = column
        self.tables = {lang: words for lang, words in STOPWORDS.items()}

    def classify(self, text: str) -> str:
        if not text:
            return 'en'
        n = max(len(text), 1)
        for lang, rx, thr in _SCRIPT_LANGS:
            if len(rx.findall(text)) / n > thr:
                return lang
        cjk = len(_CJK.findall(text))
        if cjk / n > 0.2:
            return 'zh'
        words = _LANG_WORD.findall(text.lower())
        if not words:
            return 'en'
        best, best_score = 'en', -1
        for lang, table in self.tables.items():
            score = sum(w in table for w in words)
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.column].fillna('')
        n_chars = np.maximum(texts.str.len().to_numpy(), 1)
        decided = np.full(len(texts), None, dtype=object)
        remaining = np.ones(len(texts), dtype=bool)
        # Script precedence mirrors the scalar loop's first-match order.
        for lang, rx, thr in _SCRIPT_LANGS:
            cnt = texts.str.count(rx.pattern).to_numpy()
            hit = remaining & (cnt / n_chars > thr)
            decided[hit] = lang
            remaining &= ~hit
        cjk = texts.str.count(_CJK.pattern).to_numpy()
        is_zh = remaining & (cjk / n_chars > 0.2)
        decided[is_zh] = 'zh'
        remaining &= ~is_zh
        flat, counts, bounds = _explode_token_lists(
            texts.str.lower().str.findall(_LANG_WORD.pattern).tolist())
        flat_s = pd.Series(flat, dtype=object)
        langs = list(self.tables)        # insertion order == tie order
        scores = np.empty((len(texts), len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            hits = flat_s.isin(self.tables[lang]).to_numpy()
            scores[:, j] = _segment_sum(hits.astype(np.int64), bounds)
        # argmax takes the FIRST maximum — identical to the scalar loop's
        # strict-greater update seeded at en.  No-word docs score 0
        # everywhere and fall to en the same way.
        winner = np.asarray(langs, dtype=object)[np.argmax(scores, axis=1)]
        decided[remaining] = winner[remaining]
        batch['lang_pred'] = decided
        return batch


class FingerprintStage:
    """Deterministic document fingerprint: polynomial hash (base B, mod
    2^64 wraparound) of the whitespace-normalized lowercased text, mixed
    through splitmix64 → int64.  Equal normalized content ⇔ equal
    fingerprint (content-defined exact-dup key).

    The kernel is batch-vectorized with the prefix trick: for the batch's
    concatenated bytes, ``T[i] = Σ_{j<i} b[j]·B^{-j}`` (one cumsum of
    uint64 products; B odd ⇒ invertible mod 2^64), and document [s, e)
    hashes to ``B^{e-1}·(T[e] - T[s])`` — position-independent, no
    per-byte Python loop (this stage touches every byte of the corpus)."""

    BASE = np.uint64(262_083)
    BASE_INV = np.uint64(pow(262_083, -1, 1 << 64))

    def __init__(self, column='text'):
        self.column = column

    def fingerprint(self, text: str) -> int:
        """Scalar reference (same values as the batch kernel)."""
        data = ' '.join(text.lower().split()).encode('utf-8')
        h = 0
        for ch in data:
            h = (h * 262_083 + ch) & 0xFFFFFFFFFFFFFFFF
        return int(self._mix(np.array([h], dtype=np.uint64))[0])

    @staticmethod
    def _mix(h: np.ndarray) -> np.ndarray:
        from ..state.sketches import _splitmix64
        return _splitmix64(h).astype(np.int64)

    @staticmethod
    def _geometric(base_int: int, n: int) -> np.ndarray:
        """[1, B, B^2, ..., B^(n-1)] mod 2^64 as int64, built block-wise
        (ufunc.accumulate has no fast int64 loop; two small accumulates
        plus one broadcast multiply do the same work vectorized)."""
        k = 2048
        small = np.empty(min(k, n), dtype=np.int64)
        small[0] = 1
        if len(small) > 1:
            with np.errstate(over='ignore'):
                np.multiply.accumulate(
                    np.full(len(small) - 1, base_int, dtype=np.int64),
                    out=small[1:])
        if n <= k:
            return small[:n]
        nblocks = -(-n // k)
        step = pow(base_int & 0xFFFFFFFFFFFFFFFF, k, 1 << 64)
        step = step - (1 << 64) if step >= (1 << 63) else step
        big = np.empty(nblocks, dtype=np.int64)
        big[0] = 1
        with np.errstate(over='ignore'):
            np.multiply.accumulate(
                np.full(nblocks - 1, step, dtype=np.int64), out=big[1:])
            grid = big[:, None] * small[None, :]
        return grid.reshape(-1)[:n]

    def fingerprints(self, texts) -> np.ndarray:
        bufs = [(' '.join(t.lower().split())).encode('utf-8') for t in texts]
        lens = np.fromiter((len(b) for b in bufs), dtype=np.int64,
                           count=len(bufs))
        if lens.sum() == 0:
            return self._mix(np.zeros(len(bufs), dtype=np.uint64))
        data = np.frombuffer(b''.join(bufs), dtype=np.uint8) \
            .astype(np.int64)
        n = len(data)
        base_i = int(self.BASE.view(np.int64) if hasattr(self.BASE, 'view')
                     else self.BASE)
        inv_i = int(np.uint64(self.BASE_INV).view(np.int64))
        with np.errstate(over='ignore'):
            inv_powers = self._geometric(inv_i, n)
            powers = self._geometric(base_i, n)
            prefix = np.concatenate(
                [[np.int64(0)], np.cumsum(data * inv_powers)])
            ends = np.cumsum(lens)
            starts = ends - lens
            h = (prefix[ends] - prefix[starts]) \
                * powers[np.maximum(ends - 1, 0)]
        h[lens == 0] = 0
        return self._mix(h.view(np.uint64))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch['fingerprint'] = self.fingerprints(
            batch[self.column].fillna('').tolist())
        return batch


def _analysis_stages(column):
    stages = [TokenCountStage(column), QualityStage(column),
              LangIdStage(column), FingerprintStage(column)]

    def analyze(batch):
        for s in stages:
            batch = s(batch)
        return batch

    return analyze


def analyze_text(ds, column='text', *, batch_size=4096):
    """Token counts + quality + language + fingerprint in one pass.

    Plain Ray tasks; stage construction (langid tables, fingerprint
    geometric tables) runs once per worker process (``PerWorker``), not
    per batch."""
    from .per_worker import PerWorker

    return PerWorker(_analysis_stages, column).map_batches(
        ds, batch_format='pandas', batch_size=batch_size)
