"""The package's names that emitted validators use besides the standard
library: the four exception classes and the enum/const and uniqueItems
helpers.

:func:`~.codegen.compile` binds them from here, and every
``compile_to_code`` artifact star-imports this module, so both routes
bind the same objects from one table.
"""

from ..exceptions import (
    JsonSchemaDefinitionException,
    JsonSchemaException,
    JsonSchemaValueException,
    JsonSchemaValuesException,
)
from .scalar import _freeze
from .scalar import enum_value_match as _enum_match

__all__ = ['JsonSchemaException', 'JsonSchemaValueException',
           'JsonSchemaValuesException', 'JsonSchemaDefinitionException',
           '_enum_match', '_freeze']
