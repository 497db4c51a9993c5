"""Exception / violation data model.

Mirrors the reference's exception payload (``fastjsonschema/exceptions.py:13-46``)
field-for-field so that per-row violation records produced by the distributed
engine carry the same information a ``JsonSchemaValueException`` would:
``message``, ``value``, ``name``, derived ``path``, ``definition``, ``rule`` and
derived ``rule_definition``.  The class names are kept API-compatible so code
written against the reference keeps working after switching engines.

``compile_to_code`` artifacts carry this module's source (less this
docstring) as their fallback when the package is missing, so it imports
nothing from the package.
"""

from __future__ import annotations

import re

_PATH_SPLIT = re.compile(r"[\.\[\]]+")


class JsonSchemaException(ValueError):
    """Base class for all engine schema errors."""


class JsonSchemaValueException(JsonSchemaException):
    """A single validation violation.

    Carries the same payload as the reference exception
    (``fastjsonschema/exceptions.py:30-46``): human message, offending value,
    dotted ``name`` (e.g. ``data.caption[3]``), the sub-schema ``definition``
    the value failed, and the breaking ``rule`` keyword.
    """

    def __init__(self, message, value=None, name=None, definition=None, rule=None):
        super().__init__(message)
        self.message = message
        self.value = value
        self.name = name
        self.definition = definition
        self.rule = rule

    @property
    def path(self):
        return [part for part in _PATH_SPLIT.split(self.name) if part != ""]

    @property
    def rule_definition(self):
        if not self.rule or not self.definition:
            return None
        return self.definition.get(self.rule)


class JsonSchemaValuesException(JsonSchemaException):
    """Collection of violations (``fast_fail=False`` mode)."""

    def __init__(self, errors):
        super().__init__()
        self.errors = errors


class JsonSchemaDefinitionException(JsonSchemaException):
    """Raised at compile time for a malformed schema definition."""


# Engine-flavoured aliases (preferred names in new code).
SchemaViolation = JsonSchemaValueException
SchemaViolations = JsonSchemaValuesException
SchemaDefinitionError = JsonSchemaDefinitionException
