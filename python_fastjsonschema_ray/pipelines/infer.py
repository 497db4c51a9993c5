"""Schema inference: profile a Dataset into a JSON-Schema table spec.

The reference compiles a hand-written schema into a validator; large
curation pipelines usually need the REVERSE first — profile a landed
table into a draft spec (types, nullability, numeric ranges, string
length bounds), eyeball/tighten it, then enforce it with
``validate_dataset`` on the next ingest.  One streaming partial pass
per block (each block emits a single tiny stats row per column, folded
on the driver) — no shuffle, nothing materialized.
"""

from __future__ import annotations

import math

import pyarrow as pa


def _json_type(t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return 'boolean'
    if pa.types.is_integer(t):
        return 'integer'
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        return 'number'
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return 'string'
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return 'string'          # payload bytes; contentEncoding applies
    if pa.types.is_list(t) or pa.types.is_large_list(t) \
            or pa.types.is_fixed_size_list(t):
        return 'array'
    if pa.types.is_struct(t) or pa.types.is_map(t):
        return 'object'
    return 'string'


def profile_columns(ds, columns=None):
    """Per-column profile rows: (column, type, nullable, min, max,
    min_length, max_length).  min/max cover numeric columns; the length
    bounds cover string columns (characters)."""
    from ..stages.exchange import gather

    schema = ds.schema()
    names = list(columns or schema.names)
    types = dict(zip(schema.names, schema.types))

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        rows = {'column': [], 'nulls': [], 'vmin': [], 'vmax': [],
                'lmin': [], 'lmax': []}
        for name in names:
            col = batch.column(name)
            t = types[name]
            rows['column'].append(name)
            rows['nulls'].append(col.null_count)
            vmin = vmax = lmin = lmax = None
            if (pa.types.is_integer(t) or pa.types.is_floating(t)) \
                    and batch.num_rows > col.null_count:
                mm = pc.min_max(col)
                vmin = float(mm['min'].as_py())
                vmax = float(mm['max'].as_py())
            if (pa.types.is_string(t) or pa.types.is_large_string(t)) \
                    and batch.num_rows > col.null_count:
                lens = pc.utf8_length(col)
                mm = pc.min_max(lens)
                lmin = int(mm['min'].as_py())
                lmax = int(mm['max'].as_py())
            rows['vmin'].append(vmin)
            rows['vmax'].append(vmax)
            rows['lmin'].append(lmin)
            rows['lmax'].append(lmax)
        return pa.table({
            'column': pa.array(rows['column'], pa.string()),
            'nulls': pa.array(rows['nulls'], pa.int64()),
            'vmin': pa.array(rows['vmin'], pa.float64()),
            'vmax': pa.array(rows['vmax'], pa.float64()),
            'lmin': pa.array(rows['lmin'], pa.int64()),
            'lmax': pa.array(rows['lmax'], pa.int64()),
        })

    partials = gather(ds.map_batches(partial, batch_format='pyarrow'))
    folded = {}
    if partials.num_rows:
        folded = {f['column']: f for f in partials.group_by('column')
                  .aggregate([('nulls', 'sum'), ('vmin', 'min'),
                              ('vmax', 'max'), ('lmin', 'min'),
                              ('lmax', 'max')]).to_pylist()}
    out = []
    for name in names:
        f = folded.get(name, {})
        out.append({
            'column': name,
            'type': _json_type(types[name]),
            'nullable': f.get('nulls_sum', 0) > 0,
            # An all-NaN column folds to (inf, -inf): no bounds.
            'min': None if f.get('vmin_min') == math.inf
            else f.get('vmin_min'),
            'max': None if f.get('vmax_max') == -math.inf
            else f.get('vmax_max'),
            'min_length': f.get('lmin_min'),
            'max_length': f.get('lmax_max'),
        })
    return out


def infer_table_spec(ds, columns=None) -> dict:
    """A JSON-Schema table spec (the shape TableValidator consumes)
    inferred from the data: observed types, required for never-null
    columns, numeric [min, max] and string length bounds.  Meant as a
    DRAFT to tighten by hand — observed bounds are not invariants."""
    profile = profile_columns(ds, columns)
    props, required = {}, []
    for row in profile:
        sub = {'type': ([row['type'], 'null'] if row['nullable']
                        else row['type'])}
        if row['min'] is not None:
            if row['type'] == 'integer':
                sub['minimum'] = int(row['min'])
                sub['maximum'] = int(row['max'])
            else:
                sub['minimum'] = row['min']
                sub['maximum'] = row['max']
        if row['min_length'] is not None:
            sub['minLength'] = row['min_length']
            sub['maxLength'] = row['max_length']
        props[row['column']] = sub
        if not row['nullable']:
            required.append(row['column'])
    return {'type': 'object', 'properties': props, 'required': required}
