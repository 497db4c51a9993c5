"""Compile-time schema analysis shared by both validator tiers.

The scalar tier (:mod:`.codegen`, emitted Python source, the reference's
own architecture) and the vector tier (:mod:`.vector`, Arrow plans) read
the same facts about a schema from here: its draft, its ``$ref`` registry
(``$ref`` URIs absolutized, remote documents fetched through
``handlers``), the flags, the keyword evaluation order of the reference
(``draft04.py:42-68`` + ``draft06.py:30-36`` + ``draft07.py:33-37``), the
JSON type table, and the value semantics of ``enum``/``const``
(:func:`enum_value_match`) and ``uniqueItems`` (:func:`_freeze`).
"""

from __future__ import annotations

import copy
import re
from decimal import Decimal

from ..exceptions import JsonSchemaDefinitionException
from .formats import FORMAT_REGEXS_BY_DRAFT, pick_draft
from .refs import SchemaRegistry

# Finds any un-escaped $ so `pattern` anchors like Python's re.search with \Z
# (reference DOLLAR_FINDER, draft04.py:18).
_DOLLAR_FINDER = re.compile(r"(?<!\\)\$")

_KEY_NAME_STRIP = re.compile(r'($[^a-zA-Z]|[^a-zA-Z0-9])')

_JSON_TYPES = {
    'null': (type(None),),
    'boolean': (bool,),
    'number': (int, float, Decimal),
    'integer': (int,),
    'string': (str,),
    'array': (list, tuple),
    'object': (dict,),
}

_KEYWORD_ORDER_D4 = (
    'type', 'enum', 'allOf', 'anyOf', 'oneOf', 'not', 'minLength', 'maxLength',
    'pattern', 'format', 'minimum', 'maximum', 'multipleOf', 'minItems',
    'maxItems', 'uniqueItems', 'items', 'minProperties', 'maxProperties',
    'required', 'dependencies', 'properties', 'patternProperties',
    'additionalProperties',
)
_KEYWORD_ORDER_D6 = _KEYWORD_ORDER_D4 + (
    'exclusiveMinimum', 'exclusiveMaximum', 'propertyNames', 'contains', 'const',
)
_KEYWORD_ORDER_D7 = _KEYWORD_ORDER_D6 + ('if', 'contentEncoding', 'contentMediaType')


def keyword_order(draft: int):
    if draft <= 4:
        return _KEYWORD_ORDER_D4
    if draft == 6:
        return _KEYWORD_ORDER_D6
    return _KEYWORD_ORDER_D7


def _strip_key(key: str) -> str:
    return _KEY_NAME_STRIP.sub('', key)


def enum_value_match(value, target) -> bool:
    """Deep type-strict equality used by enum/const (draft04.py:120-155):
    bool matches only bool identity, numbers cross-match int/float (but never
    bool or Decimal), containers compare structurally element-wise."""
    if isinstance(target, bool):
        return isinstance(value, bool) and value is target
    if isinstance(target, (int, float)):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and value == target
    if target is None:
        return value is None
    if isinstance(target, str):
        return isinstance(value, str) and value == target
    if isinstance(target, dict):
        if not isinstance(value, dict):
            return False
        if not target:
            return not value
        if len(value) != len(target):
            return False
        return all(k in value and enum_value_match(value[k], v) for k, v in target.items())
    if isinstance(target, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            return False
        if not target:
            return not value
        if len(value) != len(target):
            return False
        return all(enum_value_match(value[i], v) for i, v in enumerate(target))
    return value == target


def _embed_in_source(s: str) -> str:
    """Emulate the reference's message round trip: ``str(x)`` is pasted into a
    generated double-quoted source literal (generator.py:261-271) and the
    ``exec`` re-interprets escape sequences, so ``repr`` escapes like
    ``\\x1f`` become the raw character in the runtime message."""
    return s.encode('latin-1', 'backslashreplace').decode('unicode_escape')


def _freeze(var):
    """Deep-hashable normalization for uniqueItems (draft04.py:412-419);
    stringifies bools so True is distinct from 1."""
    if hasattr(var, 'items'):
        return frozenset({k: _freeze(v) for k, v in var.items()}.items())
    if isinstance(var, (dict, list)):
        return tuple(_freeze(v) for v in var)
    if isinstance(var, bool):
        return str(var)
    return var


class ScalarCompiler:
    """One schema's compile-time state: a deep copy of the definition, its
    draft and registry, the flags, the keyword order and a regex cache.

    ``inline_root`` compiles ``definition`` itself as the root instead of
    the document at the registry's current URI.  Sub-schema compiles use
    it to resolve ``$ref``s through a SHARED parent ``registry`` (vector
    propertyNames and fallback nodes, whose ``$ref``s the parent's
    document walk already absolutized).
    """

    def __init__(self, definition, *, draft=None, formats=None, use_default=True,
                 use_formats=True, detailed_exceptions=True, fast_fail=True,
                 handlers=None, registry=None, inline_root=False):
        # Never mutate the caller's schema: the registry walk rewrites $ref
        # URIs in place (refs.py), so work on a deep copy.  A schema too
        # deep to even copy is over the DoS cap by definition.
        try:
            definition = copy.deepcopy(definition)
        except RecursionError:
            from .refs import MAX_SCHEMA_WALK_DEPTH
            raise JsonSchemaDefinitionException(
                'Schema is too deeply nested (maximum depth is {})'.format(
                    MAX_SCHEMA_WALK_DEPTH)) from None
        self.draft = pick_draft(definition) if draft is None else draft
        self.registry = registry or SchemaRegistry.from_schema(definition, handlers=handlers)
        self.definition = definition
        self.custom_formats = dict(formats or {})
        self.use_default = use_default
        self.use_formats = use_formats
        self.detailed = detailed_exceptions
        self.fast_fail = fast_fail
        self.inline_root = inline_root
        self.order = keyword_order(self.draft)
        self.format_regexs = FORMAT_REGEXS_BY_DRAFT[4 if self.draft <= 4 else self.draft]
        self.regex_cache = {}

    def _regex(self, pattern, *, dollar_fix=False):
        key = (pattern, dollar_fix)
        hit = self.regex_cache.get(key)
        if hit is None:
            src = _DOLLAR_FINDER.sub(r'\\Z', pattern) if dollar_fix else pattern
            hit = self.regex_cache[key] = re.compile(src)
        return hit


class _Missing:
    __slots__ = ()

    def __repr__(self):
        return '<missing>'


_MISSING = _Missing()
