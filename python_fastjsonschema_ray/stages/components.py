"""Connected components over near-duplicate pair lists (transitive
dedup clusters).

No reference counterpart (``/root/reference`` validates one document at
a time); this is the standard missing piece of training-data dedup:
pairwise near-dup relations are NOT transitive, so cluster-level keep
policies (one survivor per group of mutually-similar documents) need the
transitive closure of the pair list.

Two paths, same contract — every id that appears in the pair list maps
to ``component_id`` = the minimum id in its component:

* :func:`connected_components` (driver fold, the default): near-dup edge
  lists are dup-rate-bounded (|pairs| ~ dup_rate x corpus), orders of
  magnitude smaller than the corpus, and ids-only (8-16 bytes/edge).
  The fold is vectorized min-label propagation with pointer jumping
  (numpy, O(E log d)); ``driver_pair_limit`` gates how many edges may
  be pulled to the driver (default 20M ~ 320 MB of id pairs).
* :func:`connected_components_distributed`: hash-to-min label
  propagation as Ray Data rounds (Rastogi et al., "Finding Connected
  Components in Map-Reduce") for beyond-gate edge volumes.  Each round
  is one hash co-group (labels meet edges on the node key) plus one
  bucketed min-fold; rounds ~ O(graph diameter), which for near-dup
  clusters is small.  Only (node, label) and edge endpoint rows ever
  shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import cogroup, exchange, gather


def _components_numpy(ea: np.ndarray, eb: np.ndarray,
                      n_nodes: int) -> np.ndarray:
    """Min-label propagation + pointer jumping over edge code arrays.

    Labels are node CODES (positions in the sorted unique-id array), so
    the component minimum over codes is the minimum over original ids.
    Labels only decrease => terminates; pointer jumping keeps rounds
    ~O(log diameter)."""
    label = np.arange(n_nodes, dtype=np.int64)
    while True:
        m = np.minimum(label[ea], label[eb])
        np.minimum.at(label, ea, m)
        np.minimum.at(label, eb, m)
        label = np.minimum(label, label[label])
        stable_ptr = bool((label[label] == label).all())
        m2 = np.minimum(label[ea], label[eb])
        stable_edge = bool((label[ea] == m2).all()
                           and (label[eb] == m2).all())
        if stable_ptr and stable_edge:
            return label


def connected_components(pairs, id_a='id_a', id_b='id_b', *,
                         driver_pair_limit=20_000_000):
    """Transitive closure of a near-dup pair Dataset on the driver.

    Returns a (small) Ray Dataset with columns (id, component_id) — one
    row per distinct id in the pair list, component_id = min id of the
    component.  Raises if the edge count exceeds ``driver_pair_limit``;
    switch to :func:`connected_components_distributed` past the gate.
    Only the two id columns are ever collected — never texts or payload
    columns."""
    import ray.data

    edges = gather(pairs.select_columns([id_a, id_b]))
    if not edges.num_rows:
        return ray.data.from_arrow(pa.table({
            'id': pa.array([], type=pa.int64()),
            'component_id': pa.array([], type=pa.int64())}))
    if edges.num_rows > driver_pair_limit:
        raise ValueError(
            'pair list has {} edges > driver_pair_limit={}; use '
            'connected_components_distributed'.format(
                edges.num_rows, driver_pair_limit))
    a = edges.column(id_a).combine_chunks()
    b = edges.column(id_b).combine_chunks()
    both = pa.concat_arrays([a.cast(a.type), b.cast(a.type)])
    codes_arr = both.dictionary_encode()
    uniq = codes_arr.dictionary
    # Re-encode against SORTED uniques so code order == id order and the
    # min code in a component is the min id.
    order = pa.compute.sort_indices(uniq)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(len(uniq))
    codes = rank[np.asarray(codes_arr.indices, dtype=np.int64)]
    n_edges = edges.num_rows
    label = _components_numpy(codes[:n_edges], codes[n_edges:], len(uniq))
    sorted_ids = uniq.take(order)
    return ray.data.from_arrow(pa.table({
        'id': sorted_ids,
        'component_id': sorted_ids.take(pa.array(label, type=pa.int64())),
    }))


def connected_components_distributed(pairs, id_a='id_a', id_b='id_b', *,
                                     max_rounds=50):
    """Hash-to-min connected components as Ray Data rounds.

    Per round, each node's current label is sent across every incident
    edge and nodes fold the min of what they hear; a pointer-jumping
    step (label <- label[label], one more bucketed co-group) then
    short-circuits chains, so rounds ~ O(log diameter) instead of
    O(diameter).  Labels only decrease; the edge-relax fixpoint (zero
    changes in a round) implies labels are constant-per-component and
    equal to the component minimum, so termination is exact regardless
    of jumps.  State (one (node, label) row per node) and edge endpoints
    are the ONLY shuffled rows; both sides move on a coarse hash bucket
    of the node key so the Ray-level group count stays O(cluster).  The
    state is materialized once per round (pair-list-sized, never
    corpus-sized); every exchange emits a fixed number of blocks, so
    each round's shuffle runs the same number of tasks."""
    import pyarrow.compute as pc

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).combine_chunks()
        b = batch.column(id_b).combine_chunks().cast(a.type)
        return pa.table({'u': pa.concat_arrays([a, b]),
                         'v': pa.concat_arrays([b, a])})

    edges = pairs.select_columns([id_a, id_b]).map_batches(
        symmetrize, batch_format='pyarrow').materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        sub = batch.group_by('u').aggregate([('v', 'min')])
        u = sub.column('u').combine_chunks()
        vmin = sub.column('v_min').combine_chunks()
        lab = pc.min_element_wise(u, vmin)
        return pa.table({'node': u, 'label': lab})

    # Local min per block, then bucketed min fold — partials only.
    labels = edges.map_batches(init_labels, batch_format='pyarrow')
    labels = _min_fold(labels, 'node', 'label').materialize()

    def forward(edge: pa.Table, lab: pa.Table) -> pa.Table:
        # Messages: each edge (u, v) forwards its source's label to the
        # target node.  Vectorized lookup (total: every edge source holds
        # a label row in its bucket) — no per-row dict probes.
        idx = pc.index_in(edge.column('u').combine_chunks(),
                          value_set=lab.column('node').combine_chunks())
        out_lab = lab.column('label').combine_chunks().take(idx)
        # (target node, forwarded label) ++ the label rows themselves
        # (tagged old=True) so the fold can detect change.
        fwd = pa.table({
            'node': edge.column('v').cast(lab.column('node').type),
            'label': out_lab,
            'old': pa.array(np.zeros(edge.num_rows, dtype=bool))})
        keep = pa.table({
            'node': lab.column('node'),
            'label': lab.column('label'),
            'old': pa.array(np.ones(lab.num_rows, dtype=bool))})
        return pa.concat_tables([fwd, keep])

    def local_fold(batch: pa.Table) -> pa.Table:
        # Min over all rows (messages + the old-label row) is the
        # candidate new label; the old label rides along separately
        # so the final fold can count changes.
        g = batch.group_by('node').aggregate([('label', 'min')])
        olds = batch.filter(batch.column('old'))
        og = olds.group_by('node').aggregate([('label', 'min')])
        return _join_old(g, og)

    def final_fold(group: pa.Table) -> pa.Table:
        merged = group.group_by('node').aggregate(
            [('label_min', 'min'), ('old_label', 'min')])
        label = merged.column('label_min_min')
        changed = pc.less(label, merged.column('old_label_min'))
        return pa.table({'node': merged.column('node'), 'label': label,
                         'changed': pc.fill_null(changed, False)
                         .cast(pa.int64())})

    for _ in range(max_rounds):
        msgs = cogroup(edges, labels, 'u', 'node', forward)
        folded = msgs.map_batches(local_fold, batch_format='pyarrow')
        new_state = exchange(folded, ['node'], final_fold).materialize()
        n_changed = new_state.sum('changed') or 0
        labels = new_state.drop_columns(['changed'])
        if not n_changed:
            labels = labels.materialize()
            break
        labels = _pointer_jump(labels).materialize()
    return labels.map_batches(
        lambda b: b.rename_columns(['id', 'component_id']),
        batch_format='pyarrow')


def _pointer_jump(labels):
    """One label <- label[label] step: co-group each (node, label) row
    keyed on its LABEL with the label rows themselves keyed on node,
    and rewrite through the lookup.  Labels always point at real nodes
    (they are min-folded node ids), so the lookup is total."""
    import pyarrow.compute as pc

    def rewrite(ref: pa.Table, src: pa.Table) -> pa.Table:
        # ref row (n, l) asks "what is l's label?"; src row (n, l)
        # answers "n's label is l".
        idx = pc.index_in(ref.column('label').combine_chunks(),
                          value_set=src.column('node').combine_chunks())
        jumped = src.column('label').combine_chunks().take(idx)
        return pa.table({'node': ref.column('node'), 'label': jumped})

    return cogroup(labels, labels, 'label', 'node', rewrite)


def _min_fold(partials, key, value):
    """Distributed min: partials (≤1 row per key per block) meet in one
    hash exchange; Arrow-native fold per bucket."""
    def fold(group: pa.Table) -> pa.Table:
        sub = group.select([key, value]).group_by(key) \
            .aggregate([(value, 'min')])
        return sub.rename_columns([key, value])

    return exchange(partials, [key], fold)


def _join_old(g: pa.Table, og: pa.Table) -> pa.Table:
    """Left-join the per-node old label onto the folded mins (small,
    in-block tables)."""
    import pyarrow.compute as pc

    idx = pc.index_in(g.column('node').combine_chunks(),
                      value_set=og.column('node').combine_chunks())
    old_vals = og.column('label_min').combine_chunks().take(idx)
    return pa.table({
        'node': g.column('node'),
        'label_min': g.column('label_min'),
        'old_label': old_vals})
