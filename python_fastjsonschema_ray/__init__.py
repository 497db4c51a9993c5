"""python_fastjsonschema_ray — Ray-Data-native schema + constraint validation engine.

A brand-new engine with the query/data-processing capabilities of
``horejsek/python-fastjsonschema`` (reference checkout at ``/root/reference``),
re-expressed Ray-Data-first: JSON-Schema-flavoured declarations compile once on
the driver into vectorized Arrow-level predicate closures that stream over
``ray.data.Dataset`` blocks via ``map_batches`` actor pools, emitting
reference-identical violation rows, plus engine-level table constraints
(uniqueness, referential integrity, column stats/sketches, distribution drift)
and training-data operators (dedup, similarity search, text analysis).
"""

from .exceptions import (
    JsonSchemaDefinitionException,
    JsonSchemaException,
    JsonSchemaValueException,
    JsonSchemaValuesException,
    SchemaDefinitionError,
    SchemaViolation,
    SchemaViolations,
)
from .functions.codegen import (  # noqa: A001 (API parity)
    compile,
    compile_to_code,
    validate,
)

VERSION = '0.1.0'
__version__ = VERSION

def __getattr__(name):
    """Lazy re-exports of the Ray-side API (importing them eagerly would pull
    ray/pandas into every scalar-only use)."""
    if name in ('TableValidator', 'ValidatorStage', 'validate_dataset',
                'top_violation_examples'):
        from .pipelines import validate as _validate
        return getattr(_validate, name)
    if name in ('column_stats', 'check_unique', 'check_referential',
                'drift_check', 'dedup_exact', 'grouped_agg',
                'grouped_topk', 'distinct_count', 'heavy_hitters',
                'pivot_table'):
        from .pipelines import constraints as _constraints
        return getattr(_constraints, name)
    if name in ('connected_components', 'connected_components_distributed'):
        from .stages import components as _components
        return getattr(_components, name)
    if name in ('broadcast_lookup_join', 'shuffle_join', 'asof_join',
                'broadcast_interval_join'):
        from .stages import join as _join
        return getattr(_join, name)
    if name in ('deterministic_sample', 'stratified_sample_exact',
                'mixture_quotas', 'mixture_sample_exact',
                'deterministic_split', 'token_budget_sample'):
        from .stages import sample as _sample
        return getattr(_sample, name)
    if name in ('chunk_text', 'repetition_stats'):
        from .stages import chunk as _chunk
        return getattr(_chunk, name)
    if name in ('grouped_scan', 'global_rank'):
        from .stages import scan as _scan
        return getattr(_scan, name)
    if name in ('exact_quantile', 'exact_quantiles', 'select_rank',
                'select_ranks'):
        from .stages import quantile as _quantile
        return getattr(_quantile, name)
    if name in ('standardize_columns', 'winsorize_columns',
                'column_moments', 'column_quantile_bounds'):
        from .stages import scale as _scale
        return getattr(_scale, name)
    if name in ('dedup_minhash', 'minhash_duplicate_pairs',
                'ngram_jaccard_pairs'):
        from .stages import dedup as _dedup
        return getattr(_dedup, name)
    if name in ('urllib_handler', 'urllib_handlers'):
        from .functions import refs as _refs
        return getattr(_refs, name)
    if name in ('read_table', 'write_table'):
        from .sources import reader as _reader
        return getattr(_reader, name)
    if name == 'curate_corpus':
        from .pipelines import curate as _curate
        return _curate.curate_corpus
    if name == 'run_flagship':
        from .pipelines import flagship as _flagship
        return _flagship.run_flagship
    raise AttributeError(name)


__all__ = [
    'VERSION',
    'JsonSchemaException',
    'JsonSchemaValueException',
    'JsonSchemaValuesException',
    'JsonSchemaDefinitionException',
    'SchemaViolation',
    'SchemaViolations',
    'SchemaDefinitionError',
    'compile',
    'compile_to_code',
    'validate',
]
