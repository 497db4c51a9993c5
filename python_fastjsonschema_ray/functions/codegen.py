"""The scalar back-end: straight-line Python source for one schema.

Like the reference (``fastjsonschema/generator.py``), this engine turns a
schema into Python source and runs it.  :class:`SourceEmitter` walks the
schema with the keyword-order tables and registry of a
:class:`~.scalar.ScalarCompiler` and emits one function per subschema,
``vN(cell, name)`` in fast-fail mode or ``vN(cell, name, errors)`` in
collect mode.  ``cell`` is a one-element list holding the (possibly
transformed) value: a subschema that validates the same value shares the
cell, one that validates an element or property gets a fresh cell, so
``default`` insertion and ``contentEncoding``/``contentMediaType``
replacement land exactly where the reference's temp variables put them.

The root's checks sit in ``validate(data, name='data')`` itself, as in
the reference's root function, so a validator compiles one code object
per subschema and no more.  Only when a ``$ref`` resolves to the root
does the root keep its own function, which ``validate`` calls.

Collect mode appends to ``errors`` instead of raising.  Every ``$ref``
scope (and the root) owns its own list and raises
:class:`JsonSchemaValuesException` when it is not empty, as the
reference's per-function ``errors = []`` does (``generator.py:147-153``);
``anyOf``, ``oneOf``, ``not``, ``if``, ``contains`` and ``propertyNames``
catch only :class:`JsonSchemaValueException`, so their sub-schemas'
errors leak into the enclosing list as they do in the reference.

Schema content reaches the source only as names or as ``repr`` literals
of ``str``, ``int``, ``bool``, ``None`` and finite floats.  Every other
constant (expanded definitions at raise sites, regexes, callable formats,
plugin callables, enum/const/default values) is referred to by name.
Besides its constants, emitted code uses the names :mod:`.runtime`
exports (the four exception classes and the helpers
:func:`~.scalar.enum_value_match`, as ``_enum_match``, and
:func:`~.scalar._freeze`) and a few standard modules; nothing of them is
compiled per validator:

* :func:`compile` binds the names to the objects themselves (parameters
  of a factory around the functions) and ``exec``s the functions against
  ``_GLOBALS``, which holds the standard modules and :mod:`.runtime`'s
  names.  The factory's code object depends on its source text alone, so
  it is cached, keyed on that text, in a module-level LRU cache of
  ``_FACTORY_CACHE_SIZE`` (256) entries: schemas that emit the same
  source (the same schema under another draft, say) compile it once.
  The bound is fixed, not an option.  The vector tier's scalar fallbacks
  compile through the same cache.
* :func:`compile_to_code` writes the same names as ``repr`` literals,
  imports only the standard names its text uses (``inf`` and ``nan``
  from :mod:`math` for non-finite floats) and binds :mod:`.runtime`'s
  names with one star-import.  Without the package it ``exec``s a string
  holding the source of the same definitions, read from the package
  without docstrings or comments, so the artifact imports with no
  dependency.  Callable formats cannot be serialized: the artifact looks
  them up in its ``CUSTOM_FORMATS`` when it validates.  Plugin keywords
  are looked up in the installed package's registry.
"""

from __future__ import annotations

import base64
import builtins
import collections
import copy
import functools
import json
import math
import re
from decimal import Decimal

from .. import exceptions as _exceptions
from ..exceptions import JsonSchemaDefinitionException
from . import runtime as _runtime
from .scalar import (
    _JSON_TYPES,
    _MISSING,
    ScalarCompiler,
    _embed_in_source,
    _freeze,
    _strip_key,
    enum_value_match,
)

# Every name emitted functions use besides their own constants and
# builtins: compile() binds them as objects, the artifact imports them.
_GLOBALS = {
    'base64': base64, 'json': json, 're': re, 'deepcopy': copy.deepcopy,
    'Decimal': Decimal,
    **{name: getattr(_runtime, name) for name in _runtime.__all__},
}

# The artifact's standard imports, each written only when the text holds
# one of its needles.  Every use of a name contains its needle; a needle
# found elsewhere (a schema string, say) costs only an unused import.
# ``inf`` and ``nan`` are what repr() writes for non-finite floats.
_STD_IMPORTS = (
    (('base64',), 'import base64'),
    (('json.',), 'import json'),
    (('re.',), 'import re'),
    (('deepcopy',), 'from copy import deepcopy'),
    (('Decimal',), 'from decimal import Decimal'),
    (('inf', 'nan'), 'from math import inf, nan'),
)

# The package's names in one line; without the package, the same
# definitions from an inert string (see _standalone).
_PROLOGUE = '''\
try:
    from python_fastjsonschema_ray.functions.runtime import *
except ImportError:
'''

_LITERAL_TYPES = (str, int, bool, type(None))

# Distinct factory sources whose code objects compile_validator keeps.
_FACTORY_CACHE_SIZE = 256


@functools.lru_cache(maxsize=None)
def _standalone():
    """Artifact source defining the prologue's names without the package:
    the package's own definitions (the exceptions module imports nothing
    from the package, the helpers nothing at all), read from its source
    and written back without docstrings or comments."""
    import ast
    import inspect
    tree = ast.parse('\n'.join(inspect.getsource(obj) for obj in (
        _exceptions, enum_value_match, _freeze)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree) + '\n_enum_match = enum_value_match\n'


@functools.lru_cache(maxsize=_FACTORY_CACHE_SIZE)
def _factory_code(source):
    """The code object of one factory source.  It depends on the text
    alone: the constants reach the functions as arguments of ``make``, so
    every call of the factory gets its own closure cells."""
    return builtins.compile(source, '<validator>', 'exec')


class SourceEmitter:
    """Emits the functions of one compiled schema.

    ``emit()`` returns their source (ending with ``validate``) and raises
    :class:`JsonSchemaDefinitionException` for a malformed schema.  The
    names it refers to are in ``constants`` (name -> object) and, as
    artifact source, in ``constant_sources()``.
    """

    def __init__(self, compiler: ScalarCompiler):
        from .plugins import REGISTRY
        self.c = compiler
        self.registry = compiler.registry
        self.fast = compiler.fast_fail
        self.plugins = [(name, p) for name, p in REGISTRY.items()
                        if p.check_value is not None]
        # Trailing argument of every call to an emitted function.
        self.tail = '' if self.fast else ', errors'
        self.functions = []         # (name, scope, keys, body), in order
        self.constants = {}         # name -> object
        self._templates = {}        # name -> artifact source template
        self._const_by_key = {}
        self._expanded_by_key = {}
        self._fn_by_uri = {}        # resolved $ref uri -> function name
        self._uri_calls = collections.Counter()  # function name -> calls
        self._ref_worklist = []
        self._counter = 0

    # -- constants ---------------------------------------------------------

    def _const(self, prefix, key, obj, template=None):
        """Name bound to ``obj``.  ``template`` is its artifact source with
        a '{name}' placeholder; without one the artifact assigns
        ``repr(obj)``."""
        name = self._const_by_key.get((prefix, key))
        if name is None:
            name = '{}{}'.format(prefix, len(self.constants))
            self._const_by_key[(prefix, key)] = name
            self.constants[name] = obj
            self._templates[name] = template
        return name

    def _value(self, obj):
        """Source for a constant: a literal for plain scalars, otherwise a
        name bound to ``obj`` (kept alive by ``constants``, so ids stay
        unique)."""
        if type(obj) in _LITERAL_TYPES or (
                type(obj) is float and math.isfinite(obj)):
            return repr(obj)
        return self._const('K', id(obj), obj)

    def _fresh(self, obj):
        """Source for a new copy of ``obj`` on every evaluation."""
        source = self._value(obj)
        return ('deepcopy({})'.format(source) if source in self.constants
                else source)

    def _regex(self, pattern, dollar_fix=False):
        rx = self.c._regex(pattern, dollar_fix=dollar_fix)
        return self._const('RE', id(rx), rx,
                           '{name} = re.compile(' + repr(rx.pattern) + ')')

    def _expanded(self, definition):
        """``definition`` with one level of ``$ref`` expanded, as raise
        sites report it; computed once per node and scope."""
        key = (id(definition), self.registry.scope, self.registry.base_uri)
        hit = self._expanded_by_key.get(key)
        if hit is None:
            hit = self._expanded_by_key[key] = (
                self.registry.expand_refs(definition), definition)
        return hit[0]

    def _touch(self, definition):
        """Expand ``definition`` now: expansion resolves ``$ref``s and can
        raise, so it runs at the same point as in the reference."""
        if self.c.detailed:
            self._expanded(definition)

    # -- raise sites ---------------------------------------------------------

    def _site(self, message, definition, rule):
        """Source for one violation: raise in fast-fail mode, append in
        collect mode.  ``message`` is a source expression."""
        if self.c.detailed:
            expanded = self._expanded(definition)
            ref = self._const('D', id(expanded), expanded)
            exc = 'JsonSchemaValueException({}, cell[0], name, {}, {!r})' \
                .format(message, ref, rule)
        else:
            exc = 'JsonSchemaValueException({})'.format(message)
        return 'raise ' + exc if self.fast else 'errors.append({})'.format(exc)

    def _tail_site(self, tail, definition, rule):
        return self._site('name + ' + repr(tail), definition, rule)

    # -- functions -----------------------------------------------------------

    def _new_fn(self, hint):
        self._counter += 1
        return 'v{}_{}'.format(self._counter, _strip_key(hint)[:30] or 'x')

    def _fn_for_uri(self, uri):
        name = self._fn_by_uri.get(uri)
        if name is None:
            name = self._fn_by_uri[uri] = self._new_fn('ref')
            self._ref_worklist.append(uri)
        self._uri_calls[name] += 1
        return name

    def _ref_fn(self, ref):
        with self.registry.in_scope(ref):
            return self._fn_for_uri(self.registry.current_uri())

    def _call(self, fn, cell='cell', name='name'):
        return '{}({}, {}{})'.format(fn, cell, name, self.tail)

    def _sub_fn(self, definition, var, fn=None, scope=None):
        """Name of the function validating ``definition``: the shared
        per-URI function for a ``$ref`` node, else a new one.  ``fn`` and
        ``scope`` emit the function of a ``$ref`` target, which owns its
        error list in collect mode.  ``var`` names the value in definition
        errors, as in the reference."""
        is_ref = isinstance(definition, dict) and '$ref' in definition
        if is_ref and fn is None:
            return self._ref_fn(definition['$ref'])
        fn = fn or self._new_fn(var)
        body = []
        state = {'keys': False}
        if isinstance(definition, bool):
            if self.c.draft <= 4:
                raise JsonSchemaDefinitionException(
                    'definition must be an object')
            if not definition:
                body.append(self._tail_site(' must not be there', definition,
                                            None))
        elif not isinstance(definition, dict):
            raise JsonSchemaDefinitionException('definition must be an object')
        elif is_ref:
            body.append(self._call(self._ref_fn(definition['$ref'])))
        else:
            for keyword in self.c.order:
                if keyword in definition:
                    block = getattr(self, '_e_' + _strip_key(keyword))(
                        definition, var, state)
                    if block:
                        body.append('# ' + keyword)
                        body.extend(block)
            # Plugin keywords run after the built-ins (functions/plugins).
            for plug_name, plugin in self.plugins:
                if plug_name in definition:
                    body.append('# keyword {!r}'.format(plug_name))
                    body.extend(self._plugin_block(plugin, definition))
        self.functions.append((fn, scope, state['keys'], body))
        return fn

    def _define(self, fn, scope, keys, body):
        """Source of one emitted function.  ``validate`` starts from the
        document and returns it; it owns an error list in collect mode,
        as a ``$ref`` scope does."""
        if fn == 'validate':
            src = ["def validate(data, name='data'):", '    cell = [data]']
        else:
            src = ['def {}(cell, name{}):'.format(fn, self.tail)]
        if scope is not None:
            src.append('    # schema scope: {!r}'.format(scope))
        owns_errors = not self.fast and (scope is not None
                                         or fn == 'validate')
        if owns_errors:
            src.append('    errors = []')
        if keys:
            src.append('    keys = None')
        src.extend('    ' + line for line in body or ['pass'])
        if owns_errors:
            src.extend(['    if errors:',
                        '        raise JsonSchemaValuesException(errors)'])
        if fn == 'validate':
            src.append('    return cell[0]')
        return '\n'.join(src)

    def _plugin_block(self, plugin, definition):
        fn = self._const('P', id(plugin), plugin.check_value, (
            'def {name}(value, definition):\n'
            '    from python_fastjsonschema_ray.functions.plugins import '
            'REGISTRY\n'
            '    return REGISTRY[' + repr(plugin.name)
            + '].check_value(value, definition)'))
        return ['tail = {}(cell[0], {})'.format(fn, self._value(definition)),
                'if tail is not None:',
                '    ' + self._site('name + tail', definition, plugin.name)]

    # -- per-keyword emitters ------------------------------------------------
    # Each returns source lines reading the current value from ``cell[0]``
    # (transforms write back to the cell).  Definition errors, regex
    # compiles and ``$ref`` expansion happen in the reference's order.

    def _e_type(self, definition, var, state):
        types = definition['type']
        types = types if isinstance(types, list) else [types]
        try:
            pytypes = tuple(t for jt in types for t in _JSON_TYPES[jt])
        except KeyError as exc:
            raise JsonSchemaDefinitionException('Unknown type') from exc
        names = []
        for t in pytypes:
            n = 'type(None)' if t is type(None) else t.__name__
            if n not in names:
                names.append(n)
        iso = 'isinstance(cell[0], {})'.format(
            names[0] if len(names) == 1 else '({})'.format(', '.join(names)))
        cond = 'not ' + iso
        if self.c.draft >= 6 and 'integer' in types:
            cond = ('not ({} or (isinstance(cell[0], float) '
                    'and cell[0].is_integer()))'.format(iso))
        if (('number' in types or 'integer' in types)
                and 'boolean' not in types):
            cond = '({}) or isinstance(cell[0], bool)'.format(cond)
        return ['if {}:'.format(cond),
                '    ' + self._tail_site(
                    ' must be {}'.format(' or '.join(types)),
                    definition, 'type')]

    def _e_enum(self, definition, var, state):
        enum = definition['enum']
        if not isinstance(enum, (list, tuple)):
            raise JsonSchemaDefinitionException('enum must be an array')
        tail = ' must be one of ' + _embed_in_source(str(enum))
        return ['if not any(_enum_match(cell[0], o) for o in {}):'
                .format(self._value(enum)),
                '    ' + self._tail_site(tail, definition, 'enum')]

    def _e_allOf(self, definition, var, state):
        return [self._call(self._sub_fn(item, var))
                for item in definition['allOf']]

    @staticmethod
    def _tuple(names):
        return '({})'.format(''.join(n + ', ' for n in names))

    def _e_anyOf(self, definition, var, state):
        fns = [self._sub_fn(item, var) for item in definition['anyOf']]
        return ['for sub in {}:'.format(self._tuple(fns)),
                '    try:',
                '        ' + self._call('sub'),
                '        break',
                '    except JsonSchemaValueException:',
                '        pass',
                'else:',
                '    ' + self._tail_site(
                    ' cannot be validated by any definition',
                    definition, 'anyOf')]

    def _e_oneOf(self, definition, var, state):
        fns = [self._sub_fn(item, var) for item in definition['oneOf']]
        return ['count = 0',
                'for sub in {}:'.format(self._tuple(fns)),
                '    if count < 2:',
                '        try:',
                '            ' + self._call('sub'),
                '            count += 1',
                '        except JsonSchemaValueException:',
                '            pass',
                'if count != 1:',
                '    ' + self._site(
                    "name + ' must be valid exactly by one definition'"
                    " + ' ({} matches found)'.format(count)",
                    definition, 'oneOf')]

    def _e_not(self, definition, var, state):
        nd = definition['not']
        self._touch(definition)
        if nd is True:
            return [self._tail_site(' must not be there', definition, 'not')]
        if nd is False:
            return []
        site = self._tail_site(' must NOT match a disallowed definition',
                               definition, 'not')
        if not nd:
            return [site]
        fn = self._sub_fn(nd, var)
        return ['try:',
                '    ' + self._call(fn),
                'except JsonSchemaValueException:',
                '    pass',
                'else:',
                '    ' + site]

    def _len_check(self, definition, keyword, pytype, op, tail):
        n = definition[keyword]
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException(
                '{} must be a number'.format(keyword))
        return ['if isinstance(cell[0], {}) and len(cell[0]) {} {}:'
                .format(pytype, op, self._value(n)),
                '    ' + self._tail_site(tail.format(n), definition, keyword)]

    def _e_minLength(self, definition, var, state):
        return self._len_check(
            definition, 'minLength', 'str', '<',
            ' must be longer than or equal to {} characters')

    def _e_maxLength(self, definition, var, state):
        return self._len_check(
            definition, 'maxLength', 'str', '>',
            ' must be shorter than or equal to {} characters')

    def _e_pattern(self, definition, var, state):
        pattern = definition['pattern']
        rx = self._regex(pattern, dollar_fix=True)
        return ['if isinstance(cell[0], str) and not {}.search(cell[0]):'
                .format(rx),
                '    ' + self._tail_site(' must match pattern ' + pattern,
                                         definition, 'pattern')]

    def _e_format(self, definition, var, state):
        if not self.c.use_formats:
            return []
        format_ = definition['format']
        self._touch(definition)
        if format_ in self.c.custom_formats:
            custom = self.c.custom_formats[format_]
            if isinstance(custom, str):
                test = '{}.match'.format(self._regex(custom))
            else:
                test = self._const('F', format_, custom, (
                    'def {name}(value):\n'
                    '    return CUSTOM_FORMATS[' + repr(format_)
                    + '](value)'))
        elif format_ in self.c.format_regexs:
            test = '{}.match'.format(self._regex(self.c.format_regexs[format_]))
        elif format_ == 'regex':
            return ['if isinstance(cell[0], str):',
                    '    try:',
                    '        re.compile(cell[0])',
                    '    except Exception:',
                    '        ' + self._tail_site(' must be a valid regex',
                                                 definition, 'format')]
        else:
            return []   # unknown formats are ignored (draft04.py:305-306)
        return ['if isinstance(cell[0], str) and not {}(cell[0]):'
                .format(test),
                '    ' + self._tail_site(' must be ' + format_, definition,
                                         'format')]

    @staticmethod
    def _runtime_bound(bound):
        # The reference interpolates the bound into source with str(), so
        # a Decimal bound becomes a float literal in generated code.
        return float(str(bound)) if isinstance(bound, Decimal) else bound

    def _bound_lines(self, definition, keyword):
        bound = definition[keyword]
        if not isinstance(bound, (int, float, Decimal)):
            article = ('an integer, a float or a decimal'
                       if keyword.startswith('exclusive') else 'a number')
            raise JsonSchemaDefinitionException(
                '{} must be {}'.format(keyword, article))
        exclusive = (definition.get(
            'exclusive' + keyword[0].upper() + keyword[1:], False)
            if keyword in ('minimum', 'maximum') else True)
        lo = 'inimum' in keyword
        op = ('<=' if exclusive else '<') if lo else \
             ('>=' if exclusive else '>')
        word = 'bigger' if lo else 'smaller'
        tail = (' must be {} than {}'.format(word, bound) if exclusive
                else ' must be {} than or equal to {}'.format(word, bound))
        return ['if isinstance(cell[0], (int, float, Decimal)) '
                'and cell[0] {} {}:'.format(
                    op, self._value(self._runtime_bound(bound))),
                '    ' + self._tail_site(tail, definition, keyword)]

    def _e_minimum(self, definition, var, state):
        return self._bound_lines(definition, 'minimum')

    def _e_maximum(self, definition, var, state):
        return self._bound_lines(definition, 'maximum')

    def _e_exclusiveMinimum(self, definition, var, state):
        return self._bound_lines(definition, 'exclusiveMinimum')

    def _e_exclusiveMaximum(self, definition, var, state):
        return self._bound_lines(definition, 'exclusiveMaximum')

    def _e_multipleOf(self, definition, var, state):
        mo = definition['multipleOf']
        if not isinstance(mo, (int, float, Decimal)):
            raise JsonSchemaDefinitionException('multipleOf must be a number')
        runtime = self._runtime_bound(mo)
        divisor = self._value(runtime)
        # Float divisors divide exactly in Decimal: 19.01 / 0.01 is 1901
        # (draft04.py:361-364).
        quotient = ('Decimal(repr(cell[0])) / {}'.format(
            self._value(Decimal(repr(runtime))))
            if isinstance(mo, float) else 'cell[0] / ' + divisor)
        # NaN/inf are never an exact multiple: a clean violation where the
        # reference crashes in int(quotient) (documented divergence,
        # tests/test_reference_divergences.py).
        return [
            'if isinstance(cell[0], (int, float, Decimal)):',
            '    if isinstance(cell[0], float) and (cell[0] != cell[0] '
            "or cell[0] in (float('inf'), float('-inf'))):",
            '        bad = True',
            '    else:',
            '        quotient = ' + quotient,
            '        bad = int(quotient) != quotient',
            '    if bad:',
            '        ' + self._tail_site(' must be multiple of {}'.format(mo),
                                         definition, 'multipleOf'),
            "    if cell[0] / {} == float('inf'):".format(divisor),
            '        ' + self._site("'inifinity reached'", definition,
                                    'multipleOf'),
        ]

    def _e_minItems(self, definition, var, state):
        return self._len_check(
            definition, 'minItems', '(list, tuple)', '<',
            ' must contain at least {} items')

    def _e_maxItems(self, definition, var, state):
        return self._len_check(
            definition, 'maxItems', '(list, tuple)', '>',
            ' must contain less than or equal to {} items')

    def _e_uniqueItems(self, definition, var, state):
        if not definition['uniqueItems']:
            return []
        return ['if isinstance(cell[0], (list, tuple)) and '
                'len(cell[0]) > len({_freeze(x) for x in cell[0]}):',
                '    ' + self._tail_site(' must contain unique items',
                                         definition, 'uniqueItems')]

    def _e_items(self, definition, var, state):
        items_definition = definition['items']
        if items_definition is True:
            return []
        self._touch(definition)
        if items_definition is False:
            return ['if isinstance(cell[0], (list, tuple)) and cell[0]:',
                    '    ' + self._tail_site(' must not be there',
                                             definition, 'items')]
        if isinstance(items_definition, list):
            fns = [self._sub_fn(d, '{}__{}'.format(var, i))
                   for i, d in enumerate(items_definition)]
            additional = definition.get('additionalItems', _MISSING)
            add_fn = None
            if additional is not _MISSING and additional is not False:
                add_fn = self._sub_fn(additional, var + '_item')
            # Elements validate through a temp cell: whole-value transforms
            # do not write back into the list (draft04.py:455-459).
            lines = ['if isinstance(cell[0], (list, tuple)):',
                     '    orig_len = len(cell[0])']
            for idx, (fn, d) in enumerate(zip(fns, items_definition)):
                lines += ['    if orig_len > {}:'.format(idx),
                          '        ' + self._call(
                              fn, '[cell[0][{}]]'.format(idx),
                              'name + ' + repr('[{}]'.format(idx)))]
                if (self.c.use_default and isinstance(d, dict)
                        and 'default' in d):
                    lines += ['    elif isinstance(cell[0], list):',
                              '        cell[0].append({})'.format(
                                  self._fresh(d['default']))]
            if additional is False:
                lines += ['    if orig_len > {}:'.format(len(fns)),
                          '        ' + self._tail_site(
                              ' must contain only specified items',
                              definition, 'items')]
            elif add_fn is not None:
                lines += ['    for pos in range({}, len(cell[0])):'
                          .format(len(fns)),
                          '        ' + self._call(
                              add_fn, '[cell[0][pos]]',
                              "'{}[{}]'.format(name, pos)")]
            return lines
        if not items_definition:
            return []
        fn = self._sub_fn(items_definition, var + '_item')
        return ['if isinstance(cell[0], (list, tuple)):',
                '    for pos, item in enumerate(cell[0]):',
                '        ' + self._call(fn, '[item]',
                                        "'{}[{}]'.format(name, pos)")]

    def _e_minProperties(self, definition, var, state):
        return self._len_check(
            definition, 'minProperties', 'dict', '<',
            ' must contain at least {} properties')

    def _e_maxProperties(self, definition, var, state):
        return self._len_check(
            definition, 'maxProperties', 'dict', '>',
            ' must contain less than or equal to {} properties')

    def _e_required(self, definition, var, state):
        required = definition['required']
        if not isinstance(required, (list, tuple)):
            raise JsonSchemaDefinitionException('required must be an array')
        if len(required) != len(set(required)):
            raise JsonSchemaDefinitionException(
                'required must contain unique elements')
        if not definition.get('additionalProperties', True):
            not_possible = [
                prop for prop in required
                if prop not in definition.get('properties', {})
                and not any(re.search(regex, prop)
                            for regex in definition.get(
                                'patternProperties', {}))
            ]
            if not_possible:
                raise JsonSchemaDefinitionException(
                    '{}: items {} are required but not allowed'
                    .format(var, not_possible))
        return ['if isinstance(cell[0], dict):',
                '    missing = {} - cell[0].keys()'.format(
                    self._value(set(required))),
                '    if missing:',
                '        ' + self._site(
                    "'{} must contain {} properties'"
                    '.format(name, sorted(missing))',
                    definition, 'required')]

    def _e_dependencies(self, definition, var, state):
        entries = []
        for key, values in definition['dependencies'].items():
            if values == [] or values is True:
                continue
            if values is False or isinstance(values, list):
                entries.append((key, values))
            else:
                # Schema-form dependencies validate the same cell, so
                # transforms propagate (draft04.py:666-668).
                entries.append((key, self._sub_fn(values, var)))
        if not entries:
            return []
        lines = ['if isinstance(cell[0], dict):']
        for key, payload in entries:
            lines.append('    if {} in cell[0]:'.format(self._value(key)))
            if payload is False:
                lines.append('        ' + self._site(
                    '{!r} + name + {!r}'.format(
                        '{} in '.format(key), ' must not be there'),
                    definition, 'dependencies'))
            elif isinstance(payload, list):
                for dep in payload:
                    lines += ['        if {} not in cell[0]:'.format(
                                  self._value(dep)),
                              '            ' + self._tail_site(
                                  ' missing dependency {} for {}'.format(
                                      dep, key),
                                  definition, 'dependencies')]
            else:
                lines.append('        ' + self._call(payload))
        return lines

    @staticmethod
    def _keys(state):
        """The node's consumed-keys set, shared by properties,
        patternProperties, additionalProperties and propertyNames."""
        state['keys'] = True
        return ['    if keys is None:',
                '        keys = set(cell[0].keys())']

    def _e_properties(self, definition, var, state):
        props = []
        for key, prop_definition in definition['properties'].items():
            key_name = _strip_key(key)
            if not isinstance(prop_definition, (dict, bool)):
                raise JsonSchemaDefinitionException(
                    '{}[{}] must be object'.format(var, key_name))
            props.append((key, prop_definition, self._sub_fn(
                prop_definition, '{}__{}'.format(var, key_name))))
        lines = ['if isinstance(cell[0], dict):'] + self._keys(state)
        for key, prop_definition, fn in props:
            k = self._value(key)
            # Temp-cell semantics: nested containers mutate in place but
            # whole-value replacement is dropped (draft04.py:553-559).
            lines += ['    if {} in keys:'.format(k),
                      '        keys.remove({})'.format(k),
                      '        ' + self._call(
                          fn, '[cell[0][{}]]'.format(k),
                          'name + ' + repr('.{}'.format(key)))]
            if (self.c.use_default and isinstance(prop_definition, dict)
                    and 'default' in prop_definition):
                lines += ['    else:',
                          '        cell[0][{}] = {}'.format(
                              k, self._fresh(prop_definition['default']))]
        return lines

    def _e_patternProperties(self, definition, var, state):
        pairs = ['({}, {})'.format(self._regex(pattern),
                                   self._sub_fn(sub, var + '_val'))
                 for pattern, sub in definition['patternProperties'].items()]
        if not pairs:
            return []
        return (['if isinstance(cell[0], dict):'] + self._keys(state) + [
            '    for key, val in cell[0].items():',
            '        for regex, sub in {}:'.format(self._tuple(pairs)),
            '            if regex.search(key):',
            '                keys.discard(key)',
            '                ' + self._call(
                'sub', '[val]', "'{}.{}'.format(name, key)")])

    def _e_additionalProperties(self, definition, var, state):
        add_definition = definition['additionalProperties']
        self._touch(definition)
        if add_definition is True or add_definition == {}:
            return []
        if add_definition:
            fn = self._sub_fn(add_definition, var + '_value')
            props = list(definition.get('properties', {}).keys())
            return (['if isinstance(cell[0], dict):'] + self._keys(state) + [
                '    for key in keys:',
                '        if key not in {}:'.format(self._value(props)),
                '            ' + self._call(fn, '[cell[0].get(key)]',
                                            "'{}.{}'.format(name, key)")])
        return (['if isinstance(cell[0], dict):'] + self._keys(state) + [
            '    if keys:',
            '        ' + self._site(
                "'{} must not contain {} properties'.format(name, keys)",
                definition, 'additionalProperties')])

    def _e_propertyNames(self, definition, var, state):
        names_definition = definition.get('propertyNames', {})
        self._touch(definition)
        if names_definition is True:
            return []
        if names_definition is False:
            return (['if isinstance(cell[0], dict):'] + self._keys(state) + [
                '    if keys:',
                '        ' + self._tail_site(' must not be there',
                                             definition, 'propertyNames')])
        fn = self._sub_fn(names_definition, var + '_key')
        return ['if isinstance(cell[0], dict) and len(cell[0]):',
                '    ok = True',
                '    for key in cell[0]:',
                '        try:',
                '            ' + self._call(fn, '[key]'),
                '        except JsonSchemaValueException:',
                '            ok = False',
                '    if not ok:',
                '        ' + self._tail_site(
                    ' must be named by propertyName definition',
                    definition, 'propertyNames')]

    def _e_contains(self, definition, var, state):
        contains_definition = definition['contains']
        self._touch(definition)
        if contains_definition is False:
            return ['if isinstance(cell[0], (list, tuple)):',
                    '    ' + self._tail_site(' is always invalid',
                                             definition, 'contains')]
        if contains_definition is True:
            return ['if isinstance(cell[0], (list, tuple)) and not cell[0]:',
                    '    ' + self._tail_site(' must not be empty',
                                             definition, 'contains')]
        fn = self._sub_fn(contains_definition, var + '_key')
        return ['if isinstance(cell[0], (list, tuple)):',
                '    for item in cell[0]:',
                '        try:',
                '            ' + self._call(fn, '[item]'),
                '            break',
                '        except JsonSchemaValueException:',
                '            pass',
                '    else:',
                '        ' + self._tail_site(
                    ' must contain one of contains definition',
                    definition, 'contains')]

    def _e_const(self, definition, var, state):
        const = definition['const']
        tail = ' must be same as const definition: {}'.format(
            const if isinstance(const, str) else _embed_in_source(str(const)))
        return ['if not _enum_match(cell[0], {}):'.format(self._value(const)),
                '    ' + self._tail_site(tail, definition, 'const')]

    def _e_if(self, definition, var, state):
        if_fn = self._sub_fn(definition['if'], var)
        then_fn = (self._sub_fn(definition['then'], var)
                   if 'then' in definition else None)
        else_fn = (self._sub_fn(definition['else'], var)
                   if 'else' in definition else None)
        return ['try:',
                '    ' + self._call(if_fn),
                'except JsonSchemaValueException:',
                '    ' + (self._call(else_fn) if else_fn else 'pass'),
                'else:',
                '    ' + (self._call(then_fn) if then_fn else 'pass')]

    def _e_contentEncoding(self, definition, var, state):
        if definition['contentEncoding'] != 'base64':
            return []
        return ['if isinstance(cell[0], str):',
                '    try:',
                '        cell[0] = base64.b64decode(cell[0])',
                '    except Exception:',
                '        ' + self._tail_site(' must be encoded by base64',
                                             definition, None),
                "    if cell[0] == '':",
                '        ' + self._site("'contentEncoding must be base64'",
                                        definition, None)]

    def _e_contentMediaType(self, definition, var, state):
        if definition['contentMediaType'] != 'application/json':
            return []
        return ['if isinstance(cell[0], bytes):',
                '    try:',
                "        cell[0] = cell[0].decode('utf-8')",
                '    except Exception:',
                '        ' + self._tail_site(' must encoded by utf8',
                                             definition, None),
                'if isinstance(cell[0], str):',
                '    try:',
                '        cell[0] = json.loads(cell[0])',
                '    except Exception:',
                '        ' + self._tail_site(' must be valid JSON',
                                             definition, None)]

    # -- assembly --------------------------------------------------------------

    def emit(self):
        """Source of every function, ending with ``validate(data,
        name='data')``.  ``validate`` holds the root's checks itself, as
        the reference's root function does, unless a ``$ref`` resolves to
        the root: then it calls the root's function."""
        if self.c.inline_root:
            root = self._sub_fn(self.c.definition, 'data')
        else:
            root = self._fn_for_uri(self.registry.current_uri())
        while self._ref_worklist:
            uri = self._ref_worklist.pop()
            with self.registry.resolving(uri) as target:
                self._sub_fn(target, 'data', self._fn_by_uri[uri], uri)
        functions = self.functions
        if self._uri_calls[root] > 1:     # a $ref resolves to the root
            functions.append(('validate', None, False, [self._call(root)]))
        else:
            at = next(i for i, f in enumerate(functions) if f[0] == root)
            functions.append(('validate',) + functions.pop(at)[1:])
        return '\n\n\n'.join(self._define(*f) for f in functions) + '\n'

    def constant_sources(self):
        # The first '{name}' is the placeholder; repr()s follow it.
        return ['{} = {!r}'.format(name, obj) if self._templates[name] is None
                else self._templates[name].replace('{name}', name, 1)
                for name, obj in self.constants.items()]


def compile_validator(compiler: ScalarCompiler):
    """``validate(data, name='data')`` for ``compiler``'s schema: the
    emitted source, run with its constants bound as objects.

    The functions are nested in a factory whose parameters are the
    constants, so they reach each other and the constants through closure
    cells and share the prologue's globals.  Module-level functions would
    form a cycle through their own namespace, which only the cyclic
    garbage collector frees.  The factory's code object comes from the
    bounded cache of :func:`_factory_code`."""
    emitter = SourceEmitter(compiler)
    body = emitter.emit()
    source = 'def make({}):\n{}    return validate\n'.format(
        ', '.join(emitter.constants),
        ''.join('    ' + line for line in body.splitlines(keepends=True)))
    factory = {}
    exec(_factory_code(source), _GLOBALS, factory)
    return factory['make'](*emitter.constants.values())


def compile(definition, handlers=None, formats=None, use_default=True,
            use_formats=True, detailed_exceptions=True, fast_fail=True):
    """API-compatible stand-in for ``fastjsonschema.compile``
    (``__init__.py:169-290``): returns ``fn(data) -> transformed data``."""
    return compile_validator(ScalarCompiler(
        definition, formats=formats, use_default=use_default,
        use_formats=use_formats, detailed_exceptions=detailed_exceptions,
        fast_fail=fast_fail, handlers=handlers))


def validate(definition, data, handlers=None, formats=None, use_default=True,
             use_formats=True, detailed_exceptions=True, fast_fail=True):
    """One-shot compile + run (``__init__.py:135-164``)."""
    return compile(
        definition, handlers, formats, use_default, use_formats,
        detailed_exceptions, fast_fail,
    )(data)


def compile_to_code(definition, handlers=None, formats=None, use_default=True,
                    use_formats=True, detailed_exceptions=True,
                    fast_fail=True):
    """Deployment artifact, like the reference's ``compile_to_code``
    (``__init__.py:294-341``): the source :func:`compile` runs, as a
    module with no dependency.  Write it to a file, import it, call
    ``validate(data)``.  Callable custom formats cannot be serialized;
    bind them in the module's ``CUSTOM_FORMATS`` before validating."""
    if handlers:
        raise JsonSchemaDefinitionException(
            'compile_to_code with remote handlers is not supported: resolve '
            'refs before serializing')
    from .. import VERSION
    compiler = ScalarCompiler(definition, formats=formats,
                              use_default=use_default,
                              use_formats=use_formats,
                              detailed_exceptions=detailed_exceptions,
                              fast_fail=fast_fail)
    emitter = SourceEmitter(compiler)
    body = emitter.emit()
    formats = formats or {}
    header = [
        'VERSION = {!r}'.format(VERSION),
        'SCHEMA = {!r}'.format(definition),
        'CUSTOM_FORMATS = {!r}'.format(
            {k: v for k, v in formats.items() if isinstance(v, str)}),
    ]
    callables = [k for k, v in formats.items() if not isinstance(v, str)]
    if callables:
        header.append('# Callable formats {!r} must be bound in '
                      'CUSTOM_FORMATS before validate() runs.'.format(
                          callables))
    emitted = '\n\n'.join(header + emitter.constant_sources() + [body])
    imports = '\n'.join(line for needles, line in _STD_IMPORTS
                        if any(n in emitted for n in needles))
    # Inert unless the package is missing: compiling a string literal costs
    # next to nothing, compiling the classes and helpers themselves does.
    # Bound to no name, the text is freed with the module's code object.
    # It holds no triple quote and no trailing backslash.
    parts = ['"""Validator generated by '
             'python_fastjsonschema_ray.compile_to_code."""']
    if imports:
        parts.append(imports)
    parts += [_PROLOGUE + "    exec(r'''" + _standalone() + "''')", emitted]
    return '\n\n'.join(parts)
