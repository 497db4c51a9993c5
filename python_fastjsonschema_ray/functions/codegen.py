"""The scalar back-end: straight-line Python source for one schema.

Like the reference (``fastjsonschema/generator.py``), this engine turns a
schema into Python source and runs it.  :class:`SourceEmitter` walks the
schema with the keyword-order tables and registry of a
:class:`~.scalar.ScalarCompiler`.  As in the reference's ``CodeGenerator``,
only ``validate(data, name='data')`` and each ``$ref`` target are
functions; every other subschema is inlined into its caller.  Each value
lives in a local: a subschema that validates the same value (``allOf``,
``anyOf``, ``if``, schema-form ``dependencies``...) works on the same
local, a property or element gets a fresh one, so ``default`` insertion
and ``contentEncoding``/``contentMediaType`` replacement land exactly
where the reference's temp variables put them.  A value's name
(``data.a[3]``) is built only where a violation is raised or appended.

A ``$ref`` target is ``vN(cell, name)`` in fast-fail mode or ``vN(cell,
name, errors)`` in collect mode.  ``cell`` is a one-element list holding
the (possibly transformed) value, which the function mirrors on every
rebinding, so the caller reads the value back even when the call raises.
Inlined code stays within fixed nesting bounds (``_MAX_INDENT``,
``_MAX_BLOCKS``, below CPython's limits); a subschema that would start
deeper becomes a function of the same form.  When a ``$ref`` resolves to
the root, the root is such a function too and ``validate`` calls it.

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
  names with one star-import; a constant nested deeper than the
  tokenizer accepts is written in parts, and sets in the schema's order,
  so the text does not depend on the hash seed.  Without the package it
  ``exec``s a string
  holding the source of the same definitions, read from the package
  without docstrings or comments, so the artifact imports with no
  dependency.  Callable formats cannot be serialized: the artifact looks
  them up in its ``CUSTOM_FORMATS`` when it validates.  Plugin keywords
  are looked up in the installed package's registry.
"""

from __future__ import annotations

import base64
import builtins
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

# Nesting bounds of inlined code in one emitted function.  A subschema
# whose checks would start deeper becomes a function of its own.  Below
# them CPython's limits (100 indentation levels, 20 nested loop/try
# blocks) hold with room for the few levels a keyword adds.
_MAX_INDENT = 48
_MAX_BLOCKS = 12


# The tokenizer refuses 200 nested brackets: an artifact constant nested
# deeper is written in parts.
_MAX_LITERAL_DEPTH = 90


def _assignments(name, obj):
    """Artifact lines binding ``name`` to ``obj``: ``repr(obj)``, with
    dicts, lists and tuples nested ``_MAX_LITERAL_DEPTH`` deep bound
    first to names of their own."""
    text = repr(obj)
    if len(text) <= 2 * _MAX_LITERAL_DEPTH:
        return ['{} = {}'.format(name, text)]
    lines = []

    def write(o):
        # (source, depth); plain loops keep one frame per level.
        kind = type(o)
        if kind is dict:
            parts, depth = [], 0
            for k, v in o.items():
                (ks, kd), (vs, vd) = write(k), write(v)
                parts.append(ks + ': ' + vs)
                depth = max(depth, kd, vd)
            source = '{' + ', '.join(parts) + '}'
        elif kind is list or kind is tuple:
            parts, depth = [], 0
            for v in o:
                vs, vd = write(v)
                parts.append(vs)
                depth = max(depth, vd)
            source = ', '.join(parts)
            source = ('[' + source + ']' if kind is list else
                      '(' + source + (',' if len(parts) == 1 else '') + ')')
        else:
            return repr(o), 0
        if depth + 1 < _MAX_LITERAL_DEPTH:
            return source, depth + 1
        part = '{}_{}'.format(name, len(lines))
        lines.append('{} = {}'.format(part, source))
        return part, 0

    lines.append('{} = {}'.format(name, write(obj)[0]))
    return lines


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


class _Var(str):
    """A local in a value's name path (a loop index or a key)."""


class _Value:
    """The value a block of emitted code validates.

    ``x`` is the local that holds it.  ``cell`` names the one-element list
    that mirrors it, for the value a function was called with: every
    rebinding writes through, so the caller reads the value back even
    when the call raises.  ``depth`` numbers the locals of its children.
    ``name`` is its path below the function's ``name`` argument: literal
    strings and :class:`_Var` locals, joined only at raise sites.
    """

    __slots__ = ('x', 'cell', 'depth', 'name')

    def __init__(self, x, cell=None, depth=0, name=()):
        self.x = x
        self.cell = cell
        self.depth = depth
        self.name = name

    def child(self, *name):
        """A new value one level down: a property, an element or a key,
        in a fresh local so whole-value transforms stay in the child."""
        depth = self.depth + 1
        return _Value('v{}'.format(depth), None, depth, self.name + name)


class _RootReferenced(Exception):
    """A ``$ref`` resolves to the root, which must be a function."""


def _pad(lines, levels=1):
    return ['    ' * levels + line for line in lines]


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
        self._reset(root_function=False)

    def _reset(self, root_function):
        self.root_function = root_function
        self.functions = []         # (name, scope, body lines), in order
        self.constants = {}         # name -> object
        self._templates = {}        # name -> artifact source template
        self._const_by_key = {}
        self._expanded_by_key = {}
        self._fn_by_uri = {}        # resolved $ref uri -> function name
        self._ref_worklist = []
        self._root_uri = None
        self._counter = 0
        # Where the lines being emitted sit in their function: indentation
        # levels, enclosing loop/try blocks, enclosing try blocks that
        # catch a violation.
        self._indent = self._blocks = self._catching = 0

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

    def _tmp(self, prefix):
        """A local of its own for one keyword's counter or flag."""
        self._counter += 1
        return '{}{}'.format(prefix, self._counter)

    # -- names and raise sites -----------------------------------------------

    @staticmethod
    def _name(v):
        """Source building ``v``'s name from the function's ``name``."""
        if not v.name:
            return 'name'
        if not any(isinstance(part, _Var) for part in v.name):
            return 'name + ' + repr(''.join(v.name))
        template = '{}' + ''.join(
            '{}' if isinstance(part, _Var)
            else part.replace('{', '{{').replace('}', '}}')
            for part in v.name)
        return '{!r}.format(name, {})'.format(template, ', '.join(
            part for part in v.name if isinstance(part, _Var)))

    def _site(self, v, message, definition, rule):
        """Source for one violation of ``v``: raise in fast-fail mode,
        append in collect mode.  ``message`` maps the source of the name
        to the source of the message; a built name is bound once (``nm``)
        for the message and the payload."""
        name = self._name(v)
        if self.c.detailed:
            expanded = self._expanded(definition)
            ref = self._const('D', id(expanded), expanded)
            if name == 'name':
                text, arg = message(name), name
            else:
                bound = '(nm := {})'.format(name)
                text = message(bound)
                arg = 'nm' if bound in text else name
            exc = 'JsonSchemaValueException({}, {}, {}, {}, {!r})'.format(
                text, v.x, arg, ref, rule)
        else:
            exc = 'JsonSchemaValueException({})'.format(message(name))
        return 'raise ' + exc if self.fast else 'errors.append({})'.format(exc)

    def _tail_site(self, v, tail, definition, rule):
        return self._site(v, lambda name: '{} + {!r}'.format(name, tail),
                          definition, rule)

    @staticmethod
    def _rebind(v, source):
        """Lines replacing ``v`` by ``source`` (content decoding)."""
        lines = ['{} = {}'.format(v.x, source)]
        if v.cell:
            lines.append('{}[0] = {}'.format(v.cell, v.x))
        return lines

    # -- inlining and functions ----------------------------------------------

    def _new_fn(self, hint):
        self._counter += 1
        return 'v{}_{}'.format(self._counter, _strip_key(hint)[:30] or 'x')

    def _fn_for_uri(self, uri):
        if uri == self._root_uri and not self.root_function:
            raise _RootReferenced
        name = self._fn_by_uri.get(uri)
        if name is None:
            name = self._fn_by_uri[uri] = self._new_fn('ref')
            self._ref_worklist.append(uri)
        return name

    def _ref_fn(self, ref):
        with self.registry.in_scope(ref):
            return self._fn_for_uri(self.registry.current_uri())

    def _call(self, fn, v):
        """Lines calling the emitted function ``fn`` on ``v``, through
        ``v``'s own cell or a fresh one, with the name built now.  Inside
        a try that catches a violation the value is read back even when
        the call raises, since the code after the try goes on with it."""
        cell = v.cell or 'tmp'
        lines = [] if v.cell else ['tmp = [{}]'.format(v.x)]
        call = '{}({}, {}{})'.format(fn, cell, self._name(v), self.tail)
        back = '{} = {}[0]'.format(v.x, cell)
        if self._catching:
            return lines + ['try:', '    ' + call, 'finally:', '    ' + back]
        return lines + [call, back]

    def _sub(self, definition, var, v, indent=0, blocks=0, catching=False):
        """Lines validating ``v`` against ``definition``, to be placed
        ``indent`` levels and ``blocks`` loop/try blocks further in, where
        ``catching`` says whether a try around them catches violations.
        Inline, or, past the nesting bounds, as a call to a function of
        its own.  ``var`` names the value in definition errors, as in the
        reference."""
        if isinstance(definition, bool):
            if self.c.draft <= 4:
                raise JsonSchemaDefinitionException(
                    'definition must be an object')
            return [] if definition else [self._tail_site(
                v, ' must not be there', definition, None)]
        if not isinstance(definition, dict):
            raise JsonSchemaDefinitionException('definition must be an object')
        self._indent += indent
        self._blocks += blocks
        self._catching += catching
        if '$ref' in definition:
            body = self._call(self._ref_fn(definition['$ref']), v)
        elif self._indent > _MAX_INDENT or self._blocks > _MAX_BLOCKS:
            body = self._call(self._function(definition, var), v)
        else:
            # The keywords, inline (in this frame: deep schemas recurse
            # through here and one emitter per level).  The consumed-keys
            # set exists only when a keyword reads what properties and
            # patternProperties leave.
            additional = definition.get('additionalProperties', True)
            reads_keys = not (additional is True or additional == {}) or (
                'propertyNames' in self.c.order
                and definition.get('propertyNames') is False)
            state = {'keys': self._tmp('keys') if reads_keys else None,
                     'built': False}
            body = []
            for keyword in self.c.order:
                if keyword in definition:
                    block = getattr(self, '_e_' + _strip_key(keyword))(
                        definition, var, v, state)
                    if block:
                        body.append('# ' + keyword)
                        body.extend(block)
            # Plugin keywords run after the built-ins (functions/plugins).
            for plug_name, plugin in self.plugins:
                if plug_name in definition:
                    body.append('# keyword {!r}'.format(plug_name))
                    body.extend(self._plugin_block(plugin, definition, v))
        self._indent -= indent
        self._blocks -= blocks
        self._catching -= catching
        return body

    def _function(self, definition, var, fn=None, scope=None):
        """Name of a function of its own validating ``definition`` (a
        ``$ref`` target, which owns its error list in collect mode, or a
        subschema past the nesting bounds)."""
        fn = fn or self._new_fn(var)
        nesting = self._indent, self._blocks, self._catching
        self._indent = self._blocks = self._catching = 0
        body = self._sub(definition, var, _Value('data', 'cell'))
        self._indent, self._blocks, self._catching = nesting
        self.functions.append((fn, scope, body))
        return fn

    def _define(self, fn, scope, body):
        """Source of one emitted function.  ``validate`` starts from the
        document and returns it; it owns an error list in collect mode,
        as a ``$ref`` scope does."""
        if fn == 'validate':
            src = ["def validate(data, name='data'):"]
        else:
            src = ['def {}(cell, name{}):'.format(fn, self.tail)]
        if scope is not None:
            src.append('    # schema scope: {!r}'.format(scope))
        owns_errors = not self.fast and (scope is not None
                                         or fn == 'validate')
        if owns_errors:
            src.append('    errors = []')
        if fn != 'validate' and body:
            src.append('    data = cell[0]')
        src.extend(_pad(body or ['pass']))
        if owns_errors:
            src.extend(['    if errors:',
                        '        raise JsonSchemaValuesException(errors)'])
        if fn == 'validate':
            src.append('    return data')
        return '\n'.join(src)

    def _plugin_block(self, plugin, definition, v):
        fn = self._const('P', id(plugin), plugin.check_value, (
            'def {name}(value, definition):\n'
            '    from python_fastjsonschema_ray.functions.plugins import '
            'REGISTRY\n'
            '    return REGISTRY[' + repr(plugin.name)
            + '].check_value(value, definition)'))
        return ['tail = {}({}, {})'.format(fn, v.x, self._value(definition)),
                'if tail is not None:',
                '    ' + self._site(v, lambda name: name + ' + tail',
                                    definition, plugin.name)]

    # -- per-keyword emitters ------------------------------------------------
    # Each returns source lines reading the value from ``v.x`` (transforms
    # rebind it).  Definition errors, regex compiles and ``$ref``
    # expansion happen in the reference's order.

    def _e_type(self, definition, var, v, state):
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
        x = v.x
        iso = 'isinstance({}, {})'.format(x, names[0] if len(names) == 1
                                          else '({})'.format(', '.join(names)))
        cond = 'not ' + iso
        if self.c.draft >= 6 and 'integer' in types:
            cond = ('not ({} or (isinstance({x}, float) '
                    'and {x}.is_integer()))'.format(iso, x=x))
        if (('number' in types or 'integer' in types)
                and 'boolean' not in types):
            cond = '({}) or isinstance({}, bool)'.format(cond, x)
        return ['if {}:'.format(cond),
                '    ' + self._tail_site(
                    v, ' must be {}'.format(' or '.join(types)),
                    definition, 'type')]

    def _e_enum(self, definition, var, v, state):
        enum = definition['enum']
        if not isinstance(enum, (list, tuple)):
            raise JsonSchemaDefinitionException('enum must be an array')
        tail = ' must be one of ' + _embed_in_source(str(enum))
        # A loop, not any() over a generator: a generator would make the
        # value a closure cell for the whole function.
        return ['for option in {}:'.format(self._value(enum)),
                '    if _enum_match({}, option):'.format(v.x),
                '        break',
                'else:',
                '    ' + self._tail_site(v, tail, definition, 'enum')]

    def _e_allOf(self, definition, var, v, state):
        return [line for item in definition['allOf']
                for line in self._sub(item, var, v, 0)]

    def _e_anyOf(self, definition, var, v, state):
        bodies = [self._sub(item, var, v, 2, 1, True)
                  for item in definition['anyOf']]
        site = self._tail_site(v, ' cannot be validated by any definition',
                               definition, 'anyOf')
        if bodies and not bodies[0]:
            return []
        ok = self._tmp('ok')
        lines = ['{} = False'.format(ok)]
        for i, body in enumerate(bodies):
            branch = (['try:'] + _pad(body) + [
                '    {} = True'.format(ok),
                'except JsonSchemaValueException:',
                '    pass'] if body else ['{} = True'.format(ok)])
            lines += branch if i == 0 else (
                ['if not {}:'.format(ok)] + _pad(branch))
            if not body:
                break
        return lines + ['if not {}:'.format(ok), '    ' + site]

    def _e_oneOf(self, definition, var, v, state):
        bodies = [self._sub(item, var, v, 2, 1, True)
                  for item in definition['oneOf']]
        count = self._tmp('count')
        lines = ['{} = 0'.format(count)]
        for i, body in enumerate(bodies):
            branch = (['try:'] + _pad(body) + [
                '    {} += 1'.format(count),
                'except JsonSchemaValueException:',
                '    pass'] if body else ['{} += 1'.format(count)])
            # Two matches already decide the verdict.
            lines += branch if i < 2 else (
                ['if {} < 2:'.format(count)] + _pad(branch))
        return lines + [
            'if {} != 1:'.format(count),
            '    ' + self._site(
                v, lambda name: "{} + ' must be valid exactly by one "
                "definition' + ' ({{}} matches found)'.format({})".format(
                    name, count),
                definition, 'oneOf')]

    def _e_not(self, definition, var, v, state):
        nd = definition['not']
        self._touch(definition)
        if nd is True:
            return [self._tail_site(v, ' must not be there', definition,
                                    'not')]
        if nd is False:
            return []
        site = self._tail_site(v, ' must NOT match a disallowed definition',
                               definition, 'not')
        if not nd:
            return [site]
        body = self._sub(nd, var, v, 1, 1, True)
        if not body:
            return [site]
        return (['try:'] + _pad(body) + ['except JsonSchemaValueException:',
                                         '    pass',
                                         'else:',
                                         '    ' + site])

    def _len_check(self, definition, v, keyword, pytype, op, tail):
        n = definition[keyword]
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException(
                '{} must be a number'.format(keyword))
        return ['if isinstance({x}, {}) and len({x}) {} {}:'.format(
                    pytype, op, self._value(n), x=v.x),
                '    ' + self._tail_site(v, tail.format(n), definition,
                                         keyword)]

    def _e_minLength(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'minLength', 'str', '<',
            ' must be longer than or equal to {} characters')

    def _e_maxLength(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'maxLength', 'str', '>',
            ' must be shorter than or equal to {} characters')

    def _e_pattern(self, definition, var, v, state):
        pattern = definition['pattern']
        rx = self._regex(pattern, dollar_fix=True)
        return ['if isinstance({x}, str) and not {}.search({x}):'.format(
                    rx, x=v.x),
                '    ' + self._tail_site(v, ' must match pattern ' + pattern,
                                         definition, 'pattern')]

    def _e_format(self, definition, var, v, state):
        if not self.c.use_formats:
            return []
        format_ = definition['format']
        self._touch(definition)
        x = v.x
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
            return ['if isinstance({}, str):'.format(x),
                    '    try:',
                    '        re.compile({})'.format(x),
                    '    except Exception:',
                    '        ' + self._tail_site(v, ' must be a valid regex',
                                                 definition, 'format')]
        else:
            return []   # unknown formats are ignored (draft04.py:305-306)
        return ['if isinstance({x}, str) and not {}({x}):'.format(test, x=x),
                '    ' + self._tail_site(v, ' must be ' + format_, definition,
                                         'format')]

    @staticmethod
    def _runtime_bound(bound):
        # The reference interpolates the bound into source with str(), so
        # a Decimal bound becomes a float literal in generated code.
        return float(str(bound)) if isinstance(bound, Decimal) else bound

    def _bound_lines(self, definition, v, keyword):
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
        return ['if isinstance({x}, (int, float, Decimal)) '
                'and {x} {} {}:'.format(
                    op, self._value(self._runtime_bound(bound)), x=v.x),
                '    ' + self._tail_site(v, tail, definition, keyword)]

    def _e_minimum(self, definition, var, v, state):
        return self._bound_lines(definition, v, 'minimum')

    def _e_maximum(self, definition, var, v, state):
        return self._bound_lines(definition, v, 'maximum')

    def _e_exclusiveMinimum(self, definition, var, v, state):
        return self._bound_lines(definition, v, 'exclusiveMinimum')

    def _e_exclusiveMaximum(self, definition, var, v, state):
        return self._bound_lines(definition, v, 'exclusiveMaximum')

    def _e_multipleOf(self, definition, var, v, state):
        mo = definition['multipleOf']
        if not isinstance(mo, (int, float, Decimal)):
            raise JsonSchemaDefinitionException('multipleOf must be a number')
        runtime = self._runtime_bound(mo)
        divisor = self._value(runtime)
        x = v.x
        # Float divisors divide exactly in Decimal: 19.01 / 0.01 is 1901
        # (draft04.py:361-364).
        quotient = ('Decimal(repr({})) / {}'.format(
            x, self._value(Decimal(repr(runtime))))
            if isinstance(mo, float) else '{} / {}'.format(x, divisor))
        # NaN/inf are never an exact multiple: a clean violation where the
        # reference crashes in int(quotient) (documented divergence,
        # tests/test_reference_divergences.py).
        return [
            'if isinstance({}, (int, float, Decimal)):'.format(x),
            '    if isinstance({x}, float) and ({x} != {x} '
            "or {x} in (float('inf'), float('-inf'))):".format(x=x),
            '        bad = True',
            '    else:',
            '        quotient = ' + quotient,
            '        bad = int(quotient) != quotient',
            '    if bad:',
            '        ' + self._tail_site(
                v, ' must be multiple of {}'.format(mo), definition,
                'multipleOf'),
            "    if {} / {} == float('inf'):".format(x, divisor),
            '        ' + self._site(v, lambda name: "'inifinity reached'",
                                    definition, 'multipleOf'),
        ]

    def _e_minItems(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'minItems', '(list, tuple)', '<',
            ' must contain at least {} items')

    def _e_maxItems(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'maxItems', '(list, tuple)', '>',
            ' must contain less than or equal to {} items')

    def _e_uniqueItems(self, definition, var, v, state):
        if not definition['uniqueItems']:
            return []
        return ['if isinstance({x}, (list, tuple)) and '
                'len({x}) > len({{_freeze(x) for x in {x}}}):'.format(x=v.x),
                '    ' + self._tail_site(v, ' must contain unique items',
                                         definition, 'uniqueItems')]

    def _e_items(self, definition, var, v, state):
        items_definition = definition['items']
        if items_definition is True:
            return []
        self._touch(definition)
        x = v.x
        if items_definition is False:
            return ['if isinstance({x}, (list, tuple)) and {x}:'.format(x=x),
                    '    ' + self._tail_site(v, ' must not be there',
                                             definition, 'items')]
        if isinstance(items_definition, list):
            # Elements validate in locals of their own: whole-value
            # transforms do not write back into the list
            # (draft04.py:455-459).
            bodies = []
            for i, d in enumerate(items_definition):
                item = v.child('[{}]'.format(i))
                bodies.append((item, self._sub(
                    d, '{}__{}'.format(var, i), item, 2)))
            additional = definition.get('additionalItems', _MISSING)
            pos = _Var('i{}'.format(v.depth + 1))
            extra = v.child('[', pos, ']')
            extra_body = None
            if additional is not _MISSING and additional is not False:
                extra_body = self._sub(additional, var + '_item', extra, 2, 1)
            length = self._tmp('n')
            lines = ['if isinstance({}, (list, tuple)):'.format(x),
                     '    {} = len({})'.format(length, x)]
            for idx, ((item, body), d) in enumerate(
                    zip(bodies, items_definition)):
                default = (self.c.use_default and isinstance(d, dict)
                           and 'default' in d)
                if not body and not default:
                    continue
                lines += ['    if {} > {}:'.format(length, idx)] + _pad(
                    ['{} = {}[{}]'.format(item.x, x, idx)] + body
                    if body else ['pass'], 2)
                if default:
                    lines += ['    elif isinstance({}, list):'.format(x),
                              '        {}.append({})'.format(
                                  x, self._fresh(d['default']))]
            if additional is False:
                lines += ['    if {} > {}:'.format(length, len(bodies)),
                          '        ' + self._tail_site(
                              v, ' must contain only specified items',
                              definition, 'items')]
            elif extra_body:
                lines += ['    for {} in range({}, len({})):'.format(
                              pos, len(bodies), x),
                          '        {} = {}[{}]'.format(extra.x, x, pos)
                          ] + _pad(extra_body, 2)
            return lines
        if not items_definition:
            return []
        pos = _Var('i{}'.format(v.depth + 1))
        item = v.child('[', pos, ']')
        body = self._sub(items_definition, var + '_item', item, 2, 1)
        if not body:
            return []
        return ['if isinstance({}, (list, tuple)):'.format(x),
                '    for {}, {} in enumerate({}):'.format(pos, item.x, x)
                ] + _pad(body, 2)

    def _e_minProperties(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'minProperties', 'dict', '<',
            ' must contain at least {} properties')

    def _e_maxProperties(self, definition, var, v, state):
        return self._len_check(
            definition, v, 'maxProperties', 'dict', '>',
            ' must contain less than or equal to {} properties')

    def _e_required(self, definition, var, v, state):
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
        if not required:
            return []
        # The artifact writes the set in the schema's order, so its text
        # does not depend on the string hash seed.
        keys = self._const('K', id(required), set(required), '{name} = {' + ', '.join(
            repr(key) for key in required) + '}')
        return ['if isinstance({x}, dict) and not {x}.keys() >= {}:'.format(
                    keys, x=v.x),
                '    missing = {} - {}.keys()'.format(keys, v.x),
                '    ' + self._site(
                    v, lambda name: "'{{}} must contain {{}} properties'"
                    '.format({}, sorted(missing))'.format(name),
                    definition, 'required')]

    def _e_dependencies(self, definition, var, v, state):
        entries = []
        for key, values in definition['dependencies'].items():
            if values == [] or values is True:
                continue
            if values is False or isinstance(values, list):
                entries.append((key, values, None))
            else:
                # Schema-form dependencies validate the same value, so
                # transforms propagate (draft04.py:666-668).
                entries.append((key, None, self._sub(values, var, v, 2)))
        lines = []
        for key, values, body in entries:
            present = '    if {} in {}:'.format(self._value(key), v.x)
            if values is False:
                lines += [present, '        ' + self._site(
                    v, lambda name, key=key: '{!r} + {} + {!r}'.format(
                        '{} in '.format(key), name, ' must not be there'),
                    definition, 'dependencies')]
            elif values is not None:
                lines.append(present)
                for dep in values:
                    lines += ['        if {} not in {}:'.format(
                                  self._value(dep), v.x),
                              '            ' + self._tail_site(
                                  v, ' missing dependency {} for {}'.format(
                                      dep, key),
                                  definition, 'dependencies')]
            elif body:
                lines += [present] + _pad(body, 2)
        return self._dict_block(v, lines)

    @staticmethod
    def _dict_block(v, lines):
        """``lines`` (indented once) under a dict check of ``v``."""
        return ['if isinstance({}, dict):'.format(v.x)] + lines if lines \
            else []

    def _keys(self, state, v):
        """The line building the node's consumed-keys set, for the first
        keyword that uses it (properties, patternProperties,
        additionalProperties, propertyNames: false, in that order)."""
        if state['built'] or not state['keys']:
            return []
        state['built'] = True
        return ['    {} = set({}.keys())'.format(state['keys'], v.x)]

    def _e_properties(self, definition, var, v, state):
        props = []
        for key, prop_definition in definition['properties'].items():
            key_name = _strip_key(key)
            if not isinstance(prop_definition, (dict, bool)):
                raise JsonSchemaDefinitionException(
                    '{}[{}] must be object'.format(var, key_name))
            prop = v.child('.{}'.format(key))
            props.append((key, prop_definition, prop, self._sub(
                prop_definition, '{}__{}'.format(var, key_name), prop, 2)))
        keys = state['keys']
        lines = self._keys(state, v)
        for key, prop_definition, prop, body in props:
            k = self._value(key)
            if body:
                # Temp-value semantics: nested containers mutate in place
                # but whole-value replacement is dropped
                # (draft04.py:553-559).
                body = ['{} = {}[{}]'.format(prop.x, v.x, k)] + body
            fill = []
            if (self.c.use_default and isinstance(prop_definition, dict)
                    and 'default' in prop_definition):
                fill = ['{}[{}] = {}'.format(
                    v.x, k, self._fresh(prop_definition['default']))]
            if keys:
                body = ['{}.remove({})'.format(keys, k)] + body
            elif not body:
                if fill:
                    lines += ['    if {} not in {}:'.format(k, v.x)] + \
                        _pad(fill, 2)
                continue
            lines += ['    if {} in {}:'.format(k, keys or v.x)] + \
                _pad(body, 2)
            if fill:
                lines += ['    else:'] + _pad(fill, 2)
        return self._dict_block(v, lines)

    def _e_patternProperties(self, definition, var, v, state):
        patterns = definition['patternProperties']
        key = _Var('k{}'.format(v.depth + 1))
        raw = 'u{}'.format(v.depth + 1)
        pairs = []
        for pattern, sub in patterns.items():
            rx = self._regex(pattern)
            val = v.child('.', key)
            pairs.append((rx, val, self._sub(sub, var + '_val', val, 3, 1)))
        keys = state['keys']
        if not pairs or not (keys or any(body for _, _, body in pairs)):
            return []
        # One loop over the items; every matching pattern validates the
        # property's original value.
        single = len(pairs) == 1
        lines = ['if isinstance({}, dict):'.format(v.x)] + \
            self._keys(state, v) + \
            ['    for {}, {} in {}.items():'.format(
                key, pairs[0][1].x if single else raw, v.x)]
        for rx, val, body in pairs:
            if not body and not keys:
                continue
            inner = (['{}.discard({})'.format(keys, key)] if keys else []) + \
                ([] if single or not body else
                 ['{} = {}'.format(val.x, raw)]) + body
            lines += ['        if {}.search({}):'.format(rx, key)] + \
                _pad(inner, 3)
        return lines

    def _e_additionalProperties(self, definition, var, v, state):
        add_definition = definition['additionalProperties']
        self._touch(definition)
        if add_definition is True or add_definition == {}:
            return []
        keys = state['keys']
        if add_definition:
            key = _Var('k{}'.format(v.depth + 1))
            val = v.child('.', key)
            body = self._sub(add_definition, var + '_value', val, 2, 1)
            # The set holds what properties and patternProperties left.
            return self._dict_block(v, self._keys(state, v) + ([
                '    for {} in {}:'.format(key, keys),
                '        {} = {}.get({})'.format(val.x, v.x, key)
            ] + _pad(body, 2) if body else []))
        return ['if isinstance({}, dict):'.format(v.x)] + \
            self._keys(state, v) + [
                '    if {}:'.format(keys),
                '        ' + self._site(
                    v, lambda name: "'{{}} must not contain {{}} properties'"
                    '.format({}, {})'.format(name, keys),
                    definition, 'additionalProperties')]

    def _e_propertyNames(self, definition, var, v, state):
        names_definition = definition.get('propertyNames', {})
        self._touch(definition)
        if names_definition is True:
            return []
        if names_definition is False:
            return ['if isinstance({}, dict):'.format(v.x)] + \
                self._keys(state, v) + [
                    '    if {}:'.format(state['keys']),
                    '        ' + self._tail_site(v, ' must not be there',
                                                 definition, 'propertyNames')]
        # A key validates under its object's name.
        key = v.child()
        body = self._sub(names_definition, var + '_key', key, 3, 2, True)
        if not body:
            return []
        ok = self._tmp('ok')
        return ['if isinstance({x}, dict) and len({x}):'.format(x=v.x),
                '    {} = True'.format(ok),
                '    for {} in {}:'.format(key.x, v.x),
                '        try:'] + _pad(body, 3) + [
                '        except JsonSchemaValueException:',
                '            {} = False'.format(ok),
                '    if not {}:'.format(ok),
                '        ' + self._tail_site(
                    v, ' must be named by propertyName definition',
                    definition, 'propertyNames')]

    def _e_contains(self, definition, var, v, state):
        contains_definition = definition['contains']
        self._touch(definition)
        x = v.x
        if contains_definition is False:
            return ['if isinstance({}, (list, tuple)):'.format(x),
                    '    ' + self._tail_site(v, ' is always invalid',
                                             definition, 'contains')]
        if contains_definition is True:
            return ['if isinstance({x}, (list, tuple)) and not {x}:'.format(
                        x=x),
                    '    ' + self._tail_site(v, ' must not be empty',
                                             definition, 'contains')]
        # An element validates under its array's name.
        item = v.child()
        body = self._sub(contains_definition, var + '_key', item, 3, 2, True)
        return ['if isinstance({}, (list, tuple)):'.format(x),
                '    for {} in {}:'.format(item.x, x),
                '        try:'] + _pad(body, 3) + [
                '            break',
                '        except JsonSchemaValueException:',
                '            pass',
                '    else:',
                '        ' + self._tail_site(
                    v, ' must contain one of contains definition',
                    definition, 'contains')]

    def _e_const(self, definition, var, v, state):
        const = definition['const']
        tail = ' must be same as const definition: {}'.format(
            const if isinstance(const, str) else _embed_in_source(str(const)))
        return ['if not _enum_match({}, {}):'.format(v.x, self._value(const)),
                '    ' + self._tail_site(v, tail, definition, 'const')]

    def _e_if(self, definition, var, v, state):
        if_body = self._sub(definition['if'], var, v, 1, 1, True)
        then_body = (self._sub(definition['then'], var, v, 1)
                     if 'then' in definition else [])
        else_body = (self._sub(definition['else'], var, v, 1, 2)
                     if 'else' in definition else [])
        if not if_body:
            return then_body
        if not (then_body or else_body):
            return ['try:'] + _pad(if_body) + [
                'except JsonSchemaValueException:', '    pass']
        return ['try:'] + _pad(if_body) + [
            'except JsonSchemaValueException:'] + _pad(else_body or ['pass']) \
            + ['else:'] + _pad(then_body or ['pass'])

    def _e_contentEncoding(self, definition, var, v, state):
        if definition['contentEncoding'] != 'base64':
            return []
        x = v.x
        return ['if isinstance({}, str):'.format(x),
                '    try:'] + _pad(self._rebind(
                    v, 'base64.b64decode({})'.format(x)), 2) + [
                '    except Exception:',
                '        ' + self._tail_site(v, ' must be encoded by base64',
                                             definition, None),
                "    if {} == '':".format(x),
                '        ' + self._site(
                    v, lambda name: "'contentEncoding must be base64'",
                    definition, None)]

    def _e_contentMediaType(self, definition, var, v, state):
        if definition['contentMediaType'] != 'application/json':
            return []
        x = v.x
        return ['if isinstance({}, bytes):'.format(x),
                '    try:'] + _pad(self._rebind(
                    v, "{}.decode('utf-8')".format(x)), 2) + [
                '    except Exception:',
                '        ' + self._tail_site(v, ' must encoded by utf8',
                                             definition, None),
                'if isinstance({}, str):'.format(x),
                '    try:'] + _pad(self._rebind(
                    v, 'json.loads({})'.format(x)), 2) + [
                '    except Exception:',
                '        ' + self._tail_site(v, ' must be valid JSON',
                                             definition, None)]

    # -- assembly --------------------------------------------------------------

    def emit(self):
        """Source of every function, ending with ``validate(data,
        name='data')``.  ``validate`` holds the root's checks itself, as
        the reference's root function does.  When a ``$ref`` resolves to
        the root, the root is emitted again as a function of its own,
        which ``validate`` calls.

        The emitter recurses a few frames per schema level, so a chain the
        schema walk admits (``refs.MAX_SCHEMA_WALK_DEPTH``) can still
        exhaust the interpreter's stack; that is a definition error too."""
        try:
            try:
                return self._emit()
            except _RootReferenced:
                self._reset(root_function=True)
                return self._emit()
        except RecursionError:
            raise JsonSchemaDefinitionException(
                'Schema is too deeply nested to compile') from None

    def _emit(self):
        if self.root_function:
            root = self._fn_for_uri(self.registry.current_uri())
        elif self.c.inline_root:
            self.functions.append(('validate', None, self._sub(
                self.c.definition, 'data', _Value('data'))))
        else:
            self._root_uri = self.registry.current_uri()
            with self.registry.resolving(self._root_uri) as target:
                self.functions.append(('validate', self._root_uri, self._sub(
                    target, 'data', _Value('data'))))
        while self._ref_worklist:
            uri = self._ref_worklist.pop()
            with self.registry.resolving(uri) as target:
                self._function(target, 'data', self._fn_by_uri[uri], uri)
        functions = self.functions
        if self.root_function:
            functions.append(('validate', None, [
                'cell = [data]',
                '{}(cell, name{})'.format(root, self.tail),
                'data = cell[0]']))
        else:
            # validate is emitted first; it is defined last.
            functions.append(functions.pop(0))
        return '\n\n\n'.join(self._define(*f) for f in functions) + '\n'

    def constant_sources(self):
        # The first '{name}' is the placeholder; repr()s follow it.
        return ['\n'.join(_assignments(name, obj))
                if self._templates[name] is None
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
        '\n'.join(_assignments('SCHEMA', definition)),
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
