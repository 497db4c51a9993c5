"""Training-data operators: text analysis, dedup family, similarity search
over the documents/embeddings testdata."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = '/root/testdata/sf0.001'


@pytest.fixture(scope='module')
def docs(ray_session):
    import ray.data
    return ray.data.read_parquet(SF + '/documents.parquet')


@pytest.fixture(scope='module')
def embeddings(ray_session):
    import ray.data
    return ray.data.read_parquet(SF + '/embeddings.parquet')


def test_analyze_text(docs):
    from python_fastjsonschema_ray.stages.text import analyze_text
    out = analyze_text(docs).to_pandas()
    assert {'n_tokens', 'n_subwords', 'alpha_ratio', 'quality_score',
            'lang_pred', 'fingerprint'} <= set(out.columns)
    assert (out['n_tokens'] > 0).all()
    assert out['fingerprint'].nunique() == len(out)  # no dup texts in data


def test_langid_heuristic():
    # The testdata's lang column is a random label over identical
    # English-ish token soup, so accuracy is tested on real sentences.
    from python_fastjsonschema_ray.stages.text import LangIdStage
    stage = LangIdStage()
    cases = {
        'en': 'the cat sat on the mat and it was happy that day',
        'de': 'der hund ist nicht mit der katze auf dem sofa und auch nicht im garten',
        'fr': 'le chat est dans la maison avec les enfants et il est content',
        'es': 'el perro es grande y no come con los gatos en la casa',
        'it': 'questo non è come gli altri anche se hanno più voglia di essere nel mondo',
        'pt': 'você não está como os outros mais já também gosta muito dos passeios',
        'nl': 'het is niet een hond maar ook voor zijn vrienden gaat ik naar deze plek',
        'zh': '今天天气很好我们一起去公园散步吧然后吃晚饭',
        'ja': '今日はいい天気ですね公園へ散歩に行きましょう',
        'ko': '오늘 날씨가 좋아서 공원에 산책하러 갑니다',
        'ru': 'Сегодня хорошая погода пойдем гулять в парк',
        'ar': 'الطقس جميل اليوم لنذهب في نزهة إلى الحديقة',
        'he': 'מזג האוויר יפה היום בוא נלך לטייל בפארק',
        'el': 'ο καιρός είναι ωραίος σήμερα πάμε βόλτα στο πάρκο',
        'hi': 'आज मौसम अच्छा है चलो पार्क में टहलने चलते हैं',
    }
    for lang, text in cases.items():
        assert stage.classify(text) == lang, (lang, stage.classify(text))

    # Batch path must equal the scalar reference on every case.
    df = pd.DataFrame({'text': list(cases.values()) + ['', 'no stopwords x']})
    out = stage(df.copy())
    exp = [stage.classify(t) for t in df['text']]
    assert out['lang_pred'].tolist() == exp


def test_minhash_finds_planted_near_dups(ray_session, docs):
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import (
        jaccard, minhash_duplicate_pairs)
    df = docs.to_pandas().head(40).copy()
    # Plant near-duplicates: copy rows with a tiny suffix edit.
    clones = df.head(5).copy()
    clones['doc_id'] = clones['doc_id'] + 100000
    clones['text'] = clones['text'] + ' extra'
    both = ray.data.from_pandas(pd.concat([df, clones], ignore_index=True))
    pairs = minhash_duplicate_pairs(both, 'doc_id', 'text',
                                    threshold=0.8).take_all()
    found = {(p['id_a'], p['id_b']) for p in pairs}
    expected = {(d, d + 100000) for d in clones['doc_id'] - 100000}
    assert expected <= found, (sorted(found), sorted(expected))
    for p in pairs:
        assert p['jaccard'] >= 0.8


def test_minhash_recall_and_precision(ray_session, docs):
    """The synthetic corpus draws from a tiny vocabulary, so genuine
    near-duplicate pairs exist; compare LSH output against brute-force
    shingle-Jaccard ground truth on a subset."""
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import (
        jaccard, minhash_duplicate_pairs)
    df = docs.to_pandas().head(80)
    truth = set()
    texts = dict(zip(df['doc_id'], df['text']))
    ids = sorted(texts)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if jaccard(texts[ids[i]], texts[ids[j]]) >= 0.85:
                truth.add((ids[i], ids[j]))
    sub = ray.data.from_pandas(df)
    pairs = minhash_duplicate_pairs(sub, 'doc_id', 'text',
                                    threshold=0.8).take_all()
    found = {(p['id_a'], p['id_b']) for p in pairs}
    # Recall: every strong pair (>=0.85) must be found (expected banding
    # miss rate at s=0.85 is ~0.6% with 16 bands of 8 rows; deterministic
    # here because the permutations and corpus are seeded).
    assert truth <= found, truth - found
    # Precision: every reported pair passed exact verification >= 0.8.
    for p in pairs:
        assert p['jaccard'] >= 0.8


def test_minhash_cogroup_path_matches_broadcast(ray_session, docs,
                                                monkeypatch):
    """The size gate forced shut takes the at-scale co-group join; its
    verified pair set must equal the broadcast fast path's."""
    import ray.data
    from python_fastjsonschema_ray.stages import join
    from python_fastjsonschema_ray.stages.dedup import minhash_duplicate_pairs
    df = docs.to_pandas().head(60).copy()
    clones = df.head(6).copy()
    clones['doc_id'] = clones['doc_id'] + 100000
    clones['text'] = clones['text'] + ' tail'
    both = pd.concat([df, clones], ignore_index=True)
    fast = minhash_duplicate_pairs(
        ray.data.from_pandas(both), 'doc_id', 'text',
        threshold=0.8).take_all()
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    slow = minhash_duplicate_pairs(
        ray.data.from_pandas(both), 'doc_id', 'text',
        threshold=0.8).take_all()
    key = lambda p: (p['id_a'], p['id_b'], round(p['jaccard'], 6))
    assert sorted(map(key, fast)) == sorted(map(key, slow))
    assert len(fast) >= 6


def test_shingle_explode_distinct_counts():
    from python_fastjsonschema_ray.stages.dedup import (
        ShingleExplodeStage, _shingle_hashes)
    df = pd.DataFrame({
        'doc_id': [1, 2, 3],
        'text': ['abcdefabcdefabcdef', 'hello world hello world', 'xy']})
    out = ShingleExplodeStage('doc_id', 'text')(
        pa.Table.from_pandas(df)).to_pandas()
    for d, t in zip(df['doc_id'], df['text']):
        exp = np.sort(_shingle_hashes(t).view(np.int64))
        sub = out[out['doc_id'] == d]
        assert np.array_equal(np.sort(sub['sh'].to_numpy()), exp)
        assert (sub['n'] == len(exp)).all()


def test_shingle_explode_keeps_string_id_type_without_rows():
    """A batch that yields no shingle rows (no rows, or only null ids)
    keeps a ``string`` id column, not Arrow's null type.  Texts shorter
    than ``shingle_k`` are padded to one shingle."""
    from python_fastjsonschema_ray.stages.dedup import ShingleExplodeStage
    stage = ShingleExplodeStage('doc_id', 'text', shingle_k=5)
    batch = pa.table({'doc_id': pa.array([None, 'b'], pa.string()),
                      'text': pa.array(['hello world', 'xy'])})
    assert stage(batch).column('doc_id').to_pylist() == ['b']
    for empty in (batch.slice(0, 0), batch.slice(0, 1)):
        out = stage(empty)
        assert out.num_rows == 0
        assert out.schema.field('doc_id').type == pa.string()
        assert out.schema.field('sh').type == pa.int64()


def test_ngram_jaccard_exact_vs_bruteforce(ray_session, docs):
    """Prefix filtering (AllPairs/PPJoin length + position filters) is
    EXACT: the output must equal brute-force shingle Jaccard over ALL
    pairs — perfect recall AND precision, unlike the LSH path."""
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import (
        jaccard, ngram_jaccard_pairs)
    df = docs.to_pandas().head(120)
    texts = dict(zip(df['doc_id'], df['text']))
    ids = sorted(texts)
    truth = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sim = jaccard(texts[ids[i]], texts[ids[j]])
            if sim >= 0.8:
                truth[(ids[i], ids[j])] = round(sim, 6)
    pairs = ngram_jaccard_pairs(
        ray.data.from_pandas(df), 'doc_id', 'text', threshold=0.8).take_all()
    found = {(p['id_a'], p['id_b']): round(p['jaccard'], 6) for p in pairs}
    assert found == truth


def test_ngram_jaccard_cogroup_path_matches_broadcast(ray_session, docs,
                                                      monkeypatch):
    """The size gate forced shut takes the co-group verify; the pair set
    must equal the broadcast fast path's (incl. planted dups)."""
    import ray.data
    from python_fastjsonschema_ray.stages import join
    from python_fastjsonschema_ray.stages.dedup import ngram_jaccard_pairs
    df = docs.to_pandas().head(60).copy()
    clones = df.head(6).copy()
    clones['doc_id'] = clones['doc_id'] + 100000
    clones['text'] = clones['text'] + ' tail'
    both = pd.concat([df, clones], ignore_index=True)
    fast = ngram_jaccard_pairs(
        ray.data.from_pandas(both), 'doc_id', 'text',
        threshold=0.8).take_all()
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    slow = ngram_jaccard_pairs(
        ray.data.from_pandas(both), 'doc_id', 'text',
        threshold=0.8).take_all()
    key = lambda p: (p['id_a'], p['id_b'], round(p['jaccard'], 6))
    assert sorted(map(key, fast)) == sorted(map(key, slow))
    planted = {(d, d + 100000) for d in clones['doc_id'] - 100000}
    assert planted <= {(p['id_a'], p['id_b']) for p in fast}


def test_dedup_minhash_removes_losers(ray_session, docs):
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import dedup_minhash
    df = docs.to_pandas().head(30).copy()
    clones = df.head(4).copy()
    clones['doc_id'] = clones['doc_id'] + 100000
    both = ray.data.from_pandas(pd.concat([df, clones], ignore_index=True))
    from python_fastjsonschema_ray.stages.dedup import minhash_duplicate_pairs
    pairs = minhash_duplicate_pairs(both, 'doc_id', 'text',
                                    threshold=0.9).take_all()
    losers = {p['id_b'] for p in pairs}
    # The 4 exact clones must be among the losers (higher id loses).
    assert {d + 100000 for d in clones['doc_id'] - 100000} <= losers
    out = dedup_minhash(both, 'doc_id', 'text', threshold=0.9)
    assert out.count() == 34 - len(losers)


@pytest.mark.parametrize('transitive', [False, True])
def test_dedup_minhash_gate_paths_keep_equal_rows(ray_session, docs,
                                                  monkeypatch, transitive):
    """With the size gate open and forced shut, dedup_minhash keeps the
    same rows.  A row with a null doc_id is never a loser, so both paths
    keep it, even though its text copies another document's."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.stages import join
    from python_fastjsonschema_ray.stages.dedup import dedup_minhash
    df = docs.to_pandas().head(30)
    clones = df.head(4)
    table = pa.table({
        'doc_id': pa.array(list(df['doc_id']) + list(clones['doc_id'] + 100000)
                           + [None], pa.int64()),
        'text': list(df['text']) + list(clones['text']) + [df['text'][0]]})

    def kept():
        out = dedup_minhash(ray.data.from_arrow([table.slice(0, 20),
                                                 table.slice(20)]),
                            'doc_id', 'text', threshold=0.9,
                            transitive=transitive)
        return sorted((r['doc_id'] for r in out.take_all()),
                      key=lambda v: (v is None, v))

    broadcast = kept()
    monkeypatch.setattr(join, 'BROADCAST_LIMIT_BYTES', -1)
    assert kept() == broadcast
    assert broadcast[-1] is None
    assert not {d + 100000 for d in clones['doc_id']} & set(broadcast)


def test_simhash_buckets(ray_session, docs):
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import simhash_buckets
    df = docs.to_pandas().head(30).copy()
    clones = df.head(3).copy()
    clones['doc_id'] = clones['doc_id'] + 100000
    both = ray.data.from_pandas(pd.concat([df, clones], ignore_index=True))
    sigs, dup_sigs = simhash_buckets(both, 'doc_id', 'text')
    assert dup_sigs.count() >= 3     # exact copies share signatures


def test_embedding_near_dup(ray_session, embeddings):
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import embedding_duplicate_pairs
    df = embeddings.to_pandas().head(50).copy()
    clones = df.head(4).copy()
    clones['vec_id'] = clones['vec_id'] + 100000
    both = ray.data.from_pandas(pd.concat([df, clones], ignore_index=True))
    pairs = embedding_duplicate_pairs(both, 'vec_id', 'embedding', dim=64,
                                      threshold=0.999).take_all()
    found = {(p['id_a'], p['id_b']) for p in pairs}
    expected = {(v, v + 100000) for v in clones['vec_id'] - 100000}
    assert expected <= found


def test_topk_cosine_matches_numpy(embeddings):
    from python_fastjsonschema_ray.stages.ann import topk_cosine
    df = embeddings.to_pandas()
    mat = np.stack(df['embedding'].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(64)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    qn = q / np.linalg.norm(q)
    sims = unit @ qn
    expected = df['vec_id'].to_numpy()[np.argsort(-sims)][:10].tolist()
    got = topk_cosine(embeddings, 'vec_id', 'embedding', q, k=10)
    assert got['vec_id'].tolist() == expected


def test_ivf_recall(embeddings):
    from python_fastjsonschema_ray.stages.ann import (
        build_ivf, topk_cosine, topk_cosine_ivf)
    rng = np.random.default_rng(9)
    q = rng.standard_normal(64)
    exact = set(topk_cosine(embeddings, 'vec_id', 'embedding', q,
                            k=10)['vec_id'])
    tagged, centroids = build_ivf(embeddings, 'embedding', nlist=8)
    approx = set(topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding',
                                 q, k=10, nprobe=4)['vec_id'])
    assert len(exact & approx) >= 6   # recall ≥ 0.6 with half the lists probed


def test_ivf_blocks_drop_pandas_metadata(ray_session, monkeypatch,
                                         tmp_path):
    """Over a parquet file written by pandas (its schema carries
    b'pandas' metadata), neither ``build_ivf``'s tagged blocks nor
    ``topk_cosine_ivf``'s probe-filtered blocks keep that metadata,
    which Ray's block-schema dedup cannot hash."""
    import ray
    import ray.data
    from python_fastjsonschema_ray.stages import ann

    rng = np.random.default_rng(4)
    path = str(tmp_path / 'embeddings.parquet')
    pd.DataFrame({'vec_id': np.arange(64),
                  'embedding': list(rng.standard_normal((64, 8)))}) \
        .to_parquet(path)
    ds = ray.data.read_parquet(path)
    assert b'pandas' in ray.get(ds.to_arrow_refs()[0]).schema.metadata
    tagged, centroids = ann.build_ivf(ds, 'embedding', nlist=4)
    filtered = []
    real = ann.topk_cosine

    def keep_input(subset, *args, **kwargs):
        filtered.append(subset)
        return real(subset, *args, **kwargs)

    monkeypatch.setattr(ann, 'topk_cosine', keep_input)
    ann.topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding',
                        rng.standard_normal(8), k=5, nprobe=2)
    for out in (tagged, filtered[0]):
        blocks = ray.get(out.to_arrow_refs())
        assert sum(b.num_rows for b in blocks) > 0
        assert not [b for b in blocks
                    if b'pandas' in (b.schema.metadata or {})]


def test_ivf_full_training_path(embeddings):
    """train='full' refines centroids with distributed spherical Lloyd;
    the index stays exact when every list is probed, and the refined
    assignment is the true nearest-centroid-by-cosine partition."""
    from python_fastjsonschema_ray.stages.ann import (
        build_ivf, topk_cosine, topk_cosine_ivf)
    rng = np.random.default_rng(23)
    q = rng.standard_normal(64)
    tagged, centroids = build_ivf(embeddings, 'embedding', nlist=8,
                                  train='full', train_iters=3)
    np.testing.assert_allclose(np.linalg.norm(centroids, axis=1), 1.0,
                               atol=1e-9)
    exact = topk_cosine(embeddings, 'vec_id', 'embedding', q, k=10)
    full = topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding', q,
                           k=10, nprobe=8)
    assert full['vec_id'].tolist() == exact['vec_id'].tolist()
    tdf = tagged.to_pandas()
    mat = np.stack(tdf['embedding'].to_numpy()).astype(np.float64)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    expected = np.argmax(unit @ centroids.T, axis=1)
    assert (tdf['ivf_cluster'].to_numpy() == expected).all()
    with pytest.raises(ValueError, match="train must be"):
        build_ivf(embeddings, 'embedding', nlist=8, train='nope')


def test_ivf_probe_equals_bruteforce_on_probed_clusters(embeddings):
    """The vectorized probe must return EXACTLY the top-k of the rows in
    the probed clusters (no per-row Python filter semantics drift)."""
    from python_fastjsonschema_ray.stages.ann import (
        _probe_clusters, build_ivf, topk_cosine_ivf)
    rng = np.random.default_rng(17)
    q = rng.standard_normal(64)
    tagged, centroids = build_ivf(embeddings, 'embedding', nlist=8)
    probe = set(_probe_clusters(centroids, q, nprobe=3))
    tdf = tagged.to_pandas()
    sub = tdf[tdf['ivf_cluster'].isin(probe)]
    mat = np.stack(sub['embedding'].to_numpy()).astype(np.float64)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    qn = q / np.linalg.norm(q)
    expected = sub['vec_id'].to_numpy()[np.argsort(-(unit @ qn))][:10]
    got = topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding', q,
                          k=10, nprobe=3)
    assert got['vec_id'].tolist() == expected.tolist()


def test_ivf_partitioned_write_and_selective_read(embeddings, tmp_path):
    """write_ivf_partitioned + topk_cosine_ivf_partitioned read only the
    probed cluster directories and match the scan-probe result."""
    import os
    from python_fastjsonschema_ray.stages.ann import (
        _probe_clusters, build_ivf, topk_cosine_ivf,
        topk_cosine_ivf_partitioned, write_ivf_partitioned)
    rng = np.random.default_rng(23)
    q = rng.standard_normal(64)
    tagged, centroids = build_ivf(embeddings, 'embedding', nlist=8)
    path = str(tmp_path / 'ivf')
    write_ivf_partitioned(tagged, path)
    dirs = sorted(d for d in os.listdir(path) if d.startswith('ivf_cluster='))
    assert len(dirs) >= 2            # hive layout, one dir per cluster
    scan = topk_cosine_ivf(tagged, centroids, 'vec_id', 'embedding', q,
                           k=10, nprobe=4)
    sel = topk_cosine_ivf_partitioned(path, centroids, 'vec_id',
                                      'embedding', q, k=10, nprobe=4)
    assert scan['vec_id'].tolist() == sel['vec_id'].tolist()


def test_popcount64_matches_python():
    from python_fastjsonschema_ray.stages.dedup import _popcount64
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 1 << 63, 1000, dtype=np.uint64)
    xs[:4] = [0, 1, (1 << 64) - 1, 1 << 63]
    got = _popcount64(xs)
    ref = np.array([bin(int(x)).count('1') for x in xs])
    assert np.array_equal(got, ref)


def test_hamming_near_dup_exact_and_recall(ray_session):
    """Pigeonhole guarantee: every pair within max_dist is found when
    bands > max_dist; no pair beyond max_dist is reported."""
    import itertools
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.stages.dedup import hamming_near_dup
    rng = np.random.default_rng(3)
    base = rng.integers(0, 1 << 63, 40, dtype=np.int64)
    rows = list(base)
    # Plant near-dups at distances 1..4 off base[0..3].
    for i, d in enumerate((1, 2, 3, 4)):
        v = int(base[i])
        for bit in rng.choice(64, d, replace=False):
            v ^= 1 << int(bit)
        rows.append(np.int64(np.uint64(v & ((1 << 64) - 1)).astype(np.int64)))
    ids = list(range(len(rows)))
    ds = ray.data.from_arrow(pa.table({
        'id': pa.array(ids, type=pa.int64()),
        'h': pa.array(rows, type=pa.int64())}))
    got = {(p['id_a'], p['id_b']): p['dist']
           for p in hamming_near_dup(ds, 'id', 'h', max_dist=3).take_all()}
    # Brute-force truth.
    truth = {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        d = bin((int(rows[i]) ^ int(rows[j])) & ((1 << 64) - 1)).count('1')
        if d <= 3:
            truth[(ids[i], ids[j])] = d
    assert got == truth, (got, truth)
    assert len(truth) >= 3          # the planted d<=3 pairs exist


def test_simhash_batch_equals_scalar():
    """The vectorized per-batch SimHash kernel is bit-identical to the
    scalar reference path, including empty/whitespace-only/unicode docs."""
    import random
    from python_fastjsonschema_ray.stages.dedup import SimHashStage
    rng = random.Random(11)
    vocab = (['hello', 'World', 'café', '…x', 'aaaa', '123']
             + ['tok%d' % i for i in range(80)])
    texts = ['', '   ', 'ünïcode Ünïcode ünïcode', 'a']
    for _ in range(200):
        texts.append(' '.join(
            rng.choices(vocab, k=rng.randint(0, 150))))
    st = SimHashStage('doc_id', 'text')
    batch = st.simhash_batch(texts).tolist()
    scalar = [SimHashStage('doc_id', 'text').simhash(t) for t in texts]
    assert batch == scalar


def test_text_stage_batch_equals_scalar():
    """Vectorized quality/langid/token-count paths match per-row reference
    computation, including empty/null/whitespace/CJK rows."""
    import pandas as pd
    import numpy as np
    from python_fastjsonschema_ray.stages.text import (
        LangIdStage, QualityStage, TokenCountStage, _WS_TOKEN)
    texts = ['', '   ', None, '今天天气很好我们一起去公园散步吧然后吃饭',
             'der hund ist nicht mit der katze', '!!!', 'a b c the of to',
             'le chat est dans la maison avec les enfants',
             'Mixed CASE text with the usual English stopwords of it']
    df = pd.DataFrame({'text': texts})
    st = LangIdStage('text')
    out = LangIdStage('text')(df.copy())
    assert out['lang_pred'].tolist() == [
        st.classify(t if t is not None else '') for t in texts]
    qa = QualityStage('text')(df.copy())
    stop_en = QualityStage('text').stop_en
    for i, t in enumerate(t if t is not None else '' for t in texts):
        w = t.lower().split()
        exp_stop = (sum(x in stop_en for x in w) / len(w)) if w else 0.0
        exp_mwl = (sum(len(x) for x in w) / len(w)) if w else 0.0
        assert qa['stopword_ratio'].iloc[i] == exp_stop
        assert qa['mean_word_len'].iloc[i] == exp_mwl
    tc = TokenCountStage('text')(df.copy())
    assert tc['n_tokens'].tolist() == [
        len(_WS_TOKEN.findall(t if t is not None else '')) for t in texts]
    assert 'n_subwords' in tc.columns
    tc2 = TokenCountStage('text', subwords=False)(df.copy())
    assert 'n_subwords' not in tc2.columns


def test_embedding_near_dup_hot_bucket_bounded(ray_session):
    """Adversarial hot bucket: 10k vectors that all land in ONE
    hyperplane cell (identical direction + planted distinct clones).
    Tiled BLAS verification must finish fast with exact results — the
    old per-pair Python loop was O(n^2) interpreter time here."""
    import time

    import ray.data
    from python_fastjsonschema_ray.stages.dedup import (
        _cosine_pairs_tiled, embedding_duplicate_pairs)

    rng = np.random.default_rng(11)
    base = rng.standard_normal(16)
    n = 10_000
    # All rows parallel to `base` with tiny independent jitter in an
    # orthogonal direction: same LSH bucket, cosines ~1 for clone pairs
    # and well below the 0.999999 threshold otherwise.
    orth = rng.standard_normal(16)
    orth -= orth @ base / (base @ base) * base
    scales = rng.uniform(0.5, 2.0, n)[:, None]
    jitter = rng.uniform(0.05, 0.08, n)[:, None]
    emb = scales * base[None, :] + jitter * orth[None, :]
    emb[5000] = emb[17] * 3.0        # exact-direction clone pair
    df = pd.DataFrame({'vec_id': np.arange(n, dtype=np.int64),
                       'embedding': list(emb.astype(np.float64))})
    ds = ray.data.from_pandas(df).repartition(4)
    t0 = time.monotonic()
    pairs = embedding_duplicate_pairs(
        ds, 'vec_id', 'embedding', dim=16, threshold=0.999999).take_all()
    elapsed = time.monotonic() - t0
    found = {(p['id_a'], p['id_b']) for p in pairs}
    assert (17, 5000) in found
    assert elapsed < 60  # old Python pair loop: ~50M iterations

    # Tiling crosses boundaries correctly: small tile vs brute force.
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    gi, gj, cos = _cosine_pairs_tiled(unit[:500], 0.99, tile=64)
    sims = unit[:500] @ unit[:500].T
    ii, jj = np.nonzero(np.triu(sims >= 0.99, k=1))
    assert sorted(zip(gi, gj)) == sorted(zip(ii, jj))


def test_hamming_pairs_tiled_matches_bruteforce():
    from python_fastjsonschema_ray.stages.dedup import (
        _hamming_pairs_tiled, _popcount64)
    rng = np.random.default_rng(3)
    hh = rng.integers(0, 1 << 16, 700, dtype=np.int64)  # dense collisions
    gi, gj, dist = _hamming_pairs_tiled(hh, 4, tile=128)
    ii, jj = np.triu_indices(len(hh), k=1)
    with np.errstate(over='ignore'):
        d = _popcount64((hh[ii] ^ hh[jj]).view(np.uint64))
    ok = d <= 4
    assert sorted(zip(gi, gj, dist)) == sorted(zip(ii[ok], jj[ok], d[ok]))


def test_partial_null_embeddings_skip_without_misalignment(ray_session,
                                                           embeddings):
    """Interleaved null embeddings are SKIPPED — and, critically, the
    surviving (id, vector) pairing stays intact: a naive
    flatten().reshape of a partially-null list column pairs row i's id
    with row j's vector.  top-k over the nulled dataset must equal
    numpy top-k over only the non-null rows, ids included."""
    import pyarrow as pa
    import ray.data
    from python_fastjsonschema_ray.stages.ann import topk_cosine
    from python_fastjsonschema_ray.stages.cluster import (
        kmeans_assign, kmeans_fit)

    df = embeddings.to_pandas().head(200).copy()
    # Null out every third embedding (ids keep counting through them).
    nulled = df['embedding'].to_numpy().copy()
    nulled[::3] = None
    t = pa.table({
        'vec_id': pa.array(df['vec_id'], type=pa.int64()),
        'embedding': pa.array(
            [None if v is None else list(map(float, v)) for v in nulled],
            type=pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t).repartition(4)

    keep = df[[v is not None for v in nulled]]
    mat = np.stack(keep['embedding'].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(64)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    sims = unit @ (q / np.linalg.norm(q))
    expected = keep['vec_id'].to_numpy()[np.argsort(-sims)][:10].tolist()

    got = topk_cosine(ds, 'vec_id', 'embedding', q, k=10)
    assert got['vec_id'].tolist() == expected

    # k-means fit + assign over the same nulled dataset: exactly the
    # non-null rows come back, tagged with their nearest centroid.
    cents, _ = kmeans_fit(ds, 'embedding', 4, iters=4, seed=3)
    tagged = kmeans_assign(ds, 'embedding', cents).to_pandas()
    assert sorted(tagged['vec_id']) == sorted(keep['vec_id'])
    m = np.stack(
        tagged.sort_values('vec_id')['embedding'].to_numpy()
    ).astype(np.float64)
    d2 = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    exp_assign = np.argmin(d2, axis=1)
    got_assign = tagged.sort_values('vec_id')['cluster'].to_numpy()
    assert (got_assign == exp_assign).all()
