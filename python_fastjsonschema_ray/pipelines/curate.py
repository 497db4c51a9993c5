"""End-to-end corpus curation: the composed training-data pipeline.

The reference validates one document at a time; a real pretraining
pipeline runs a SEQUENCE of the engine's operators over the whole
corpus.  ``curate_corpus`` wires the existing stages into the standard
curation recipe (the C4/Gopher/RefinedWeb shape):

  normalize → language-ID + quality scoring → threshold filters →
  exact dedup (fingerprint winners) → MinHash near-dedup →
  benchmark decontamination → repetition filter →
  [optional] chunking → train/val/test split labels

Every step is one of the engine's tested operators; this module only
composes them, so the scale shape is inherited: the per-document steps
are streaming ``map_batches`` (no shuffle), exact dedup moves one row
per distinct fingerprint per block, near-dedup moves band triples, and
the id keep/drop sets ride the object store as broadcast refs — the
driver never holds texts.

``stats=True`` materializes after each filtering step (object-store,
spillable) so the per-stage counts don't re-execute the whole prefix —
the single-run equivalent of checkpointing each stage to parquet; at
100 TB you would write real checkpoints instead (resumable layout,
``sources/reader.py:write_table``).
"""

from __future__ import annotations


def curate_corpus(ds, *, id_column='doc_id', text_column='text',
                  languages=None, min_quality=None,
                  near_dup_threshold=0.8, transitive=False,
                  bench_ds=None, bench_text_column='text',
                  max_dup_char_ratio=None,
                  chunk_chars=None, overlap=0,
                  split_fractions=None, stats=False,
                  checkpoint_dir=None):
    """Run the standard curation recipe over a (id, text) corpus.

    Returns the curated Dataset, or ``(Dataset, stats_dict)`` with
    per-stage surviving-row counts when ``stats=True``.  Optional steps
    are skipped when their parameter is None: ``languages`` (keep-list
    for the heuristic language ID), ``min_quality`` (0-1 score floor),
    ``bench_ds`` (decontamination benchmark corpus), and
    ``max_dup_char_ratio`` (Gopher-style repetition ceiling);
    ``chunk_chars`` switches the output to chunk rows;
    ``split_fractions`` (e.g. ``{'train': .9, 'val': .1}``) appends a
    deterministic split label keyed on ``id_column``.

    ``checkpoint_dir`` makes the run RESUMABLE: each stage's output is
    written once as partitioned parquet under
    ``{checkpoint_dir}/{stage}/`` (atomic per-stage directory commit —
    written to a ``.tmp`` path and renamed), and a re-run skips every
    stage whose directory already committed, restarting from the first
    missing one.  This is the 100-TB posture: a crashed curation job
    re-reads the last finished stage instead of recomputing the
    corpus."""
    import numpy as np  # noqa: F401 (stage kernels)
    import pyarrow as pa

    from ..stages.chunk import RepetitionStage, chunk_text
    from ..stages.clean import normalize_text
    from ..stages.decontam import benchmark_ngrams, decontaminate
    from ..stages.dedup import dedup_minhash
    from ..stages.join import broadcast_lookup_join
    from ..stages.sample import deterministic_split
    from ..stages.text import analyze_text
    from .constraints import dedup_winner_ids

    counts = {}

    def checkpoint(d, name):
        if checkpoint_dir is not None:
            d = _stage_checkpoint(d, checkpoint_dir, name)
        elif stats:
            d = d.materialize()
        if stats:
            counts[name] = d.count()
        return d

    ds = checkpoint(ds, 'input')

    # 1. Canonicalize text (Arrow kernels; case preserved — the scorers
    #    lowercase internally where needed).
    ds = normalize_text(ds, text_column, lower=False)

    # 2. One task pass adds n_tokens/quality/lang/fingerprint.
    ds = analyze_text(ds, text_column)

    # 3. Threshold filters — pure per-batch Arrow masks (zero-copy from
    #    the object store; null lang/score never passes).
    if languages is not None or min_quality is not None:
        keep_langs = (pa.array(sorted(set(languages)))
                      if languages is not None else None)
        floor = float(min_quality) if min_quality is not None else None

        def keep(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            mask = None
            if keep_langs is not None:
                mask = pc.fill_null(
                    pc.is_in(batch.column('lang_pred'),
                             value_set=keep_langs), False)
            if floor is not None:
                m2 = pc.fill_null(pc.greater_equal(
                    batch.column('quality_score'), floor), False)
                mask = m2 if mask is None else pc.and_(mask, m2)
            return batch.filter(mask)

        ds = ds.map_batches(keep, batch_format='pyarrow')
        ds = checkpoint(ds, 'after_lang_quality')

    # The next two stages FAN OUT over `ds` (winner-id extraction and
    # the minhash banding pass each execute the dataset besides the
    # main flow), so pin the analyzed corpus in the object store once —
    # otherwise the normalize+analyze prefix re-executes per consumer.
    # At 100 TB this is where you would checkpoint to parquet instead
    # (write_table's resumable layout — exactly what ``checkpoint_dir``
    # does, making the materialize redundant); materialize() is the
    # in-memory spillable equivalent.
    if checkpoint_dir is None:
        # Coalesce before pinning: the read leaves many tiny blocks and
        # every downstream consumer (winner extraction, three broadcast
        # filters, banding) pays per-task scheduling for each — merge to
        # ~cpus/2 blocks once, inside the same pinning execution.
        import ray
        ds = ds.repartition(
            max(int(ray.cluster_resources().get('CPU', 8)) // 2, 1))
        ds = ds.materialize()

    # 4. Exact dedup: winner ids per distinct fingerprint (one row per
    #    distinct key per block moves), then a broadcast semi-join keeps
    #    the winners — ids only ever cross the wire.
    winners = dedup_winner_ids(ds, ['fingerprint'], id_column)
    ds = broadcast_lookup_join(ds, id_column, winners, id_column,
                               how='semi')
    ds = checkpoint(ds, 'after_exact_dedup')

    # 5. MinHash-LSH near-dedup (loser ids broadcast; band triples are
    #    the only shuffle).  Same fan-out shape: banding + the keep
    #    filter both read `ds`.
    if near_dup_threshold is not None:
        # No second barrier: the minhash banding pass and its keep
        # filter DO both re-execute `ds`, but past the step-3 pin that
        # prefix is only the broadcast semi-join filter over pinned
        # blocks (an index_in per batch) — re-running it twice is
        # cheaper than a second full materialization of the corpus.
        ds = dedup_minhash(ds, id_column, text_column,
                           threshold=near_dup_threshold,
                           transitive=transitive)
        ds = checkpoint(ds, 'after_near_dedup')

    # 6. Benchmark decontamination: word-8-gram broadcast membership;
    #    documents overlapping the benchmark are anti-joined away.
    if bench_ds is not None:
        grams = benchmark_ngrams(bench_ds, bench_text_column)
        hits = decontaminate(ds, id_column, text_column, grams)
        ds = broadcast_lookup_join(ds, id_column, hits, id_column,
                                   how='anti')
        ds = checkpoint(ds, 'after_decontamination')

    # 7. Repetition ceiling — the dup-word mass computed inline per
    #    batch (row-aligned), no join needed.
    if max_dup_char_ratio is not None:
        rep = RepetitionStage(id_column, text_column)
        ceiling = float(max_dup_char_ratio)

        def unrepetitive(batch: pa.Table) -> pa.Table:
            # Only (id, text) convert to pandas (RepetitionStage's
            # factorize kernel is pandas-native); the batch itself is
            # filtered zero-copy in Arrow.
            sub = batch.select([id_column, text_column]).to_pandas()
            ratios = rep(sub)['dup_char_ratio'].to_numpy()
            return batch.filter(pa.array(ratios <= ceiling))

        ds = ds.map_batches(unrepetitive, batch_format='pyarrow')
        ds = checkpoint(ds, 'after_repetition')

    # 8. Optional chunking: output becomes (id, chunk_idx, chunk_text).
    if chunk_chars is not None:
        ds = chunk_text(ds, id_column, text_column,
                        chunk_chars=chunk_chars, overlap=overlap)
        ds = checkpoint(ds, 'chunks')

    # 9. Deterministic split labels (stable across re-runs/layouts).
    if split_fractions is not None:
        ds = deterministic_split(ds, id_column, split_fractions)

    if checkpoint_dir is not None:
        ds = _stage_checkpoint(ds, checkpoint_dir, 'output')
    if stats:
        if checkpoint_dir is None:
            ds = ds.materialize()
        counts['output'] = ds.count()
        return ds, counts
    return ds


def _stage_checkpoint(ds, root, name):
    """Write-once parquet checkpoint: commit ``{root}/{name}`` by
    atomic rename of a ``.tmp`` write; an existing committed directory
    short-circuits to a read (resume).  Execution of ``ds`` only
    happens on the first run."""
    import os
    import shutil

    from ..sources.reader import read_table, write_table

    final = os.path.join(root, name)
    if os.path.isdir(final):
        return read_table(final)
    tmp = final + '.tmp'
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)           # half-written crash leftover
    os.makedirs(tmp)
    write_table(ds, tmp)
    os.rename(tmp, final)
    return read_table(final)
