"""Custom-rule plugin API (SURVEY §2.5 user-extension surface).

The reference lets users extend validation through custom ``formats`` and
``CodeGenerator`` subclassing; the engine's equivalent is keyword
registration: a plugin adds a brand-new schema keyword evaluated AFTER the
built-in keywords (stable, documented position in the evaluation order),
usable by both the scalar validator and the vectorized table path.

    from python_fastjsonschema_ray.functions.plugins import register_keyword

    def check_even(value, definition):
        '''Return a failure message tail, or None when valid.'''
        if isinstance(value, int) and value % 2:
            return ' must be even'
        return None

    register_keyword('isEven', check_value=check_even)

    engine.compile({'isEven': True})(4)          # scalar path
    validate_dataset(ds, {'properties': {'x': {'isEven': True}}})  # vector

An optional ``vector`` builder supplies a vectorized implementation
``(definition, arrow_type, compiler) -> Rule | None``; without one the
engine derives a per-row kernel from ``check_value`` automatically.
"""

from __future__ import annotations


class CustomKeyword:
    __slots__ = ('name', 'check_value', 'vector')

    def __init__(self, name, check_value=None, vector=None):
        self.name = name
        self.check_value = check_value
        self.vector = vector


REGISTRY: dict[str, CustomKeyword] = {}


def register_keyword(name, check_value=None, vector=None):
    """Register a custom validation keyword.

    ``check_value(value, definition) -> str | None`` returns the failure
    message tail (appended to the element name, reference-style) or None.
    ``vector(definition, arrow_type, compiler) -> Rule | None`` optionally
    provides the vectorized form."""
    if check_value is None and vector is None:
        raise ValueError('register_keyword needs check_value and/or vector')
    REGISTRY[name] = CustomKeyword(name, check_value, vector)


def unregister_keyword(name):
    REGISTRY.pop(name, None)
