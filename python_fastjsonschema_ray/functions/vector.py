"""Vectorized Arrow-level schema compiler.

Compiles one JSON Schema against one concrete Arrow type into a plan of
vectorized rule evaluators (``pyarrow.compute`` / numpy kernels) that validate
a whole column — or a whole table viewed as a struct array — per batch,
emitting reference-identical violation records.

Key design points (vs the reference's per-document codegen,
``fastjsonschema/generator.py:17-190``):

* **Compile-time type guards.**  The reference guards every keyword with
  runtime ``isinstance`` checks (e.g. ``minLength`` silently passes for
  non-strings, ``draft04.py:268``).  Against a typed Arrow column the guard is
  decided once at compile time: a rule that cannot apply to the column's type
  compiles to a no-op; only *null* handling remains a runtime mask.

* **A table is a struct view.**  ``TableValidator`` (pipelines/validate.py)
  wraps the batch's columns in a ``pa.StructArray`` (zero-copy) and validates
  it as a root ``object`` node, so required / properties / dependencies /
  if-then-else across columns fall out of generic struct-node compilation.

* **Element-major fast-fail ordering.**  The reference raises on the *first*
  failing check in document-traversal order (SURVEY.md §2.4).  Every exc site
  gets an int64 order key; list elements expand keys as
  ``base + elem_pos * child_span + child_rel_key`` so a per-row ``min(key)``
  reproduces the traversal order exactly, element-major.

* **Per-rule row kernels as the escape hatch.**  Rules with no Arrow kernel
  (Decimal-exact float ``multipleOf``, deep enums, Python-``re`` patterns RE2
  cannot run or runs differently, callable ``formats``) fall back to a row
  kernel *for that rule only*; ordering, messages and violation payloads stay
  uniform.  A ``pattern`` takes the reference's ``$``→``\\Z`` rewrite with
  RE2's ``\\z`` instead (both mean end of text, never before a final
  newline), so ``$``-anchored patterns run in RE2.  Python's Unicode
  classes ``\\d \\D \\w \\W \\s \\S`` (ASCII-only in RE2), ``x{,n}``, ``[:``
  and a ``$`` anchor the rewrite leaves in place (``\\\\$``, and every
  ``$`` of a ``format`` regex, which is not rewritten) go to the row
  kernel.  On string, numeric, decimal and boolean views the kernel runs
  once per *distinct* value: the view is dictionary-encoded, the Python
  predicate runs over the dictionary and the fail mask is gathered back
  through the indices (null rows pass).  A callable format is therefore called once per distinct
  non-null value per batch, not once per row.  List and struct views (e.g.
  ``uniqueItems`` over nested lists) stay per-row.  Constructs the vector
  model cannot express at all raise :class:`Unsupported` and the owning
  column falls back to the emitted scalar validator
  (functions/codegen.py).

Emit contract: an :class:`Emit` is a batch of violations from one exc site.
``rows`` are view-local row indices *at the level the emit has bubbled to*,
``key`` the order key — one tuple shared by every entry of a plain site, or
an object array of per-entry tuples once a list wrapper has expanded it —
``sel`` positional entry ids, ``site`` the ``(rule, definition)`` pair
shared by every entry (``None`` when they vary, as for scalar fallbacks),
and ``records(sel)`` a frozen closure producing the payload *columns*
``(names, messages, values, rules, definitions)`` (``rules`` and
``definitions`` are ``None`` when ``site`` is set).  Wrappers remap
``rows``/``key`` only, filters slice them, and payload generation stays
bound to the view that produced it.  A view whose elements share one
display name carries it as ``const_name`` (the root ``'data'``, and
``parent + '.' + key`` for struct children below it).  There a
:class:`TailMessage` (the common ``<name><tail>`` message) makes the name
and the message one ``str`` each, and every view-bound emit's values are
the Arrow elements the view holds, so building a payload runs no Python
per entry.  Per-element names (list items, struct children under a list),
custom message functions, scalar fallbacks and content decodes keep
per-entry lists.  :func:`collect_violations` orders the entries with one
``np.lexsort`` and returns :class:`Records`, which keeps the payload in
per-emit chunks; ``TableValidator.violations_table`` dumps each distinct
scalar value once and gathers every string column with one Arrow take.
"""

from __future__ import annotations

import functools
import json as _json
import re
from decimal import Decimal

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exceptions import JsonSchemaDefinitionException, JsonSchemaValueException
from .codegen import compile_validator
from .formats import FORMAT_REGEXS_BY_DRAFT
from .scalar import (
    _DOLLAR_FINDER,
    _MISSING,
    _embed_in_source,
    _freeze,
    ScalarCompiler,
    enum_value_match,
    keyword_order,
)

MAXKEY = np.int64(2**62)


class Unsupported(Exception):
    """A construct the vector model cannot express on this Arrow type; the
    owning column falls back to the scalar path."""


class UnsupportedNode(Unsupported):
    """Like Unsupported, but the keyword's semantics depend on sibling
    keywords (e.g. additionalProperties reads properties), so the WHOLE
    node must fall back to the scalar path, not just this keyword."""


# ---------------------------------------------------------------------------
# Views and emits


class View:
    """One nesting level of a column during evaluation: the Arrow array of
    values at this level plus per-element display names — ``const_name``
    when every element shares one name, else the lazy ``name_fn``."""

    __slots__ = ('arr', 'n', 'name_fn', 'const_name', '_cache')

    def __init__(self, arr: pa.Array, name_fn=None, const_name=None):
        self.arr = arr
        self.n = len(arr)
        self.const_name = const_name
        if name_fn is None:
            def name_fn(i):
                return const_name
        self.name_fn = name_fn      # (local_idx: int) -> str
        self._cache = {}

    def names(self, idx) -> list:
        if self.const_name is not None:
            return [self.const_name] * len(idx)
        fn = self.name_fn
        return [fn(int(j)) for j in idx]

    def valid_mask(self) -> np.ndarray:
        m = self._cache.get('valid')
        if m is None:
            if self.arr.null_count == 0:
                m = np.ones(self.n, dtype=bool)
            else:
                m = np.asarray(self.arr.is_valid())
            self._cache['valid'] = m
        return m

    def list_lengths(self) -> np.ndarray:
        lens = self._cache.get('list_len')
        if lens is None:
            raw = pc.list_value_length(self.arr)
            if raw.null_count:
                raw = raw.fill_null(0)
            lens = np.asarray(raw).astype(np.int64)
            self._cache['list_len'] = lens
        return lens

    def values_at(self, idx) -> list:
        if len(idx) == 0:
            return []
        from .arrowutil import pylist_json
        return pylist_json(
            self.arr.take(pa.array(np.asarray(idx), type=pa.int64())))


class TailMessage:
    """message_fn for the common ``<name><tail>`` message.  On a view with
    a ``const_name`` the message is one constant, which :func:`make_emit`
    stores once instead of calling this per emit."""

    __slots__ = ('tail',)

    def __init__(self, tail):
        self.tail = tail

    def __call__(self, view, idx):
        return [name + self.tail for name in view.names(idx)]


class Emit:
    __slots__ = ('rows', 'key', 'sel', 'records', 'site')

    def __init__(self, rows, key, sel, records, site=None):
        self.rows = rows
        self.key = key              # tuple, or object array of tuples
        self.sel = sel
        self.records = records      # callable(sel) -> payload columns
        self.site = site            # (rule, definition) of every entry | None

    def entry_keys(self):
        """Per-entry order keys."""
        if type(self.key) is tuple:
            return [self.key] * len(self.rows)
        return self.key

    def filtered(self, keep: np.ndarray) -> 'Emit':
        key = self.key if type(self.key) is tuple else self.key[keep]
        return Emit(self.rows[keep], key, self.sel[keep], self.records,
                    self.site)

    def remapped(self, rows, key) -> 'Emit':
        return Emit(rows, key, self.sel, self.records, self.site)


def make_emit(view: View, idx: np.ndarray, key, rule, definition, message_fn):
    """Standard emit: names, messages and values pulled lazily from the
    view.  The values are the view's Arrow elements (``view.arr.take``);
    on a ``const_name`` view with a :class:`TailMessage` the name and the
    message are single strings, so no payload Python runs per entry.

    Order keys are TUPLES compared lexicographically: a plain site emits
    ``(site_offset,)``; list wrappers prepend ``(list_offset, position)``
    so element-major traversal order holds at any nesting depth without a
    numeric key range overflowing into sibling sites."""
    idx = np.asarray(idx, dtype=np.int64)
    name = view.const_name

    def values(sel):
        return view.arr.take(pa.array(idx[sel], type=pa.int64()))

    if name is not None and type(message_fn) is TailMessage:
        message = name + message_fn.tail

        def records(sel):
            return name, message, values(sel), None, None
    else:
        def records(sel):
            picked = idx[sel]
            return (view.names(picked), message_fn(view, picked),
                    values(sel), None, None)

    return Emit(idx.copy(), (int(key),), np.arange(len(idx), dtype=np.int64),
                records, (rule, definition))


class NodeResult:
    __slots__ = ('fail', 'emits')

    def __init__(self, fail, emits):
        self.fail = fail            # np.bool_[n] or None
        self.emits = emits          # list[Emit]


def _or(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _zeros(n):
    return np.zeros(n, dtype=bool)


# ---------------------------------------------------------------------------
# Type predicates


def _is_string(dt):
    return pa.types.is_string(dt) or pa.types.is_large_string(dt)


def _is_binary(dt):
    return pa.types.is_binary(dt) or pa.types.is_large_binary(dt) \
        or pa.types.is_fixed_size_binary(dt)


def _is_number(dt):
    return (pa.types.is_integer(dt) or pa.types.is_floating(dt)
            or pa.types.is_decimal(dt))


def _is_list(dt):
    return pa.types.is_list(dt) or pa.types.is_large_list(dt) \
        or pa.types.is_fixed_size_list(dt)


def _np_bool(arrow_bool_arr, n) -> np.ndarray:
    """Arrow boolean array (possibly with nulls) -> numpy bool, null=False."""
    if arrow_bool_arr.null_count:
        arrow_bool_arr = arrow_bool_arr.fill_null(False)
    out = np.asarray(arrow_bool_arr)
    if out.dtype != bool:
        out = out.astype(bool)
    return out


def row_kernel_mask(arr: pa.Array, fn) -> np.ndarray:
    """Fail mask of the Python predicate ``fn`` over the non-null elements
    of ``arr`` (null elements pass).  Scalar views run ``fn`` once per
    distinct value: dictionary-encode, evaluate the dictionary, gather the
    result through the indices.  Nested views, and half floats (which
    Arrow cannot dictionary-encode), run it per row."""
    dt = arr.type
    if not (_is_string(dt) or _is_number(dt) or pa.types.is_boolean(dt)) \
            or pa.types.is_float16(dt):
        from .arrowutil import pylist_json
        return np.fromiter(
            (v is not None and bool(fn(v)) for v in pylist_json(arr)),
            dtype=bool, count=len(arr))
    enc = arr.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    # One extra slot for null indices: they map to "pass".
    fails = np.zeros(len(uniq) + 1, dtype=bool)
    fails[:-1] = np.fromiter((bool(fn(v)) for v in uniq), dtype=bool,
                             count=len(uniq))
    idx = enc.indices
    if idx.null_count:
        idx = idx.fill_null(len(uniq))
    return fails[np.asarray(idx)]


# Regex constructs RE2 (Arrow's engine) cannot run or runs differently from
# Python `re`; their presence forces the per-row Python kernel.
_RE2_UNSUPPORTED = re.compile(
    r'\(\?[=!<]'      # lookahead / lookbehind / named groups (?<...>
    r'|\\[1-9]'       # backreferences
    r'|\(\?P'         # named groups
    r'|\\Z|\\A|\\G|\\b|\\B'
    r'|\\[dDwWsS]'    # Unicode classes in `re`, ASCII-only in RE2
    r'|\{,'           # `x{,n}` repeats in `re`, is literal text in RE2
    r'|\[:'           # `[[:alpha:]]` is a POSIX class in RE2 only
    # A `$` anchor (even backslash run before it): `re` also matches it
    # before a final newline, RE2 only at the end of the text.
    r'|(?<!\\)(?:\\\\)*\$'
)


@functools.lru_cache(maxsize=1024)
def _re2_pattern(pattern, match_mode):
    """The RE2 pattern with the same verdicts as the Python-``re`` regex
    rule (see :meth:`VectorCompiler._regex_mask_rule`), or None when only
    the row kernel is exact.  Memoized: the acceptance probe compiles the
    pattern in Arrow, which costs as much as the rest of a table compile."""
    if match_mode == 'search':
        pattern = _DOLLAR_FINDER.sub(r'\\z', pattern)
    else:
        pattern = '^(?:' + pattern + ')'
    if _RE2_UNSUPPORTED.search(pattern):
        return None
    try:
        pc.match_substring_regex(pa.array([], type=pa.string()),
                                 pattern=pattern)
    except Exception:
        return None
    return pattern


# ---------------------------------------------------------------------------
# Rules


class Rule:
    """One keyword at one node.  ``span`` counts exc-site slots in this
    rule's subtree; ``offset`` (absolute order-key base) is assigned by the
    owning NodePlan top-down after compilation."""

    span = 1

    def __init__(self):
        self._offset = 0

    @property
    def offset(self):
        return self._offset

    def set_offset(self, value):
        self._offset = value

    def evaluate(self, view: View, collect: bool) -> NodeResult:
        raise NotImplementedError


class SimpleRule(Rule):
    def __init__(self, rule, definition, mask_fn, message_tail=None,
                 message_fn=None):
        super().__init__()
        self.rule = rule
        self.definition = definition
        self.mask_fn = mask_fn
        if message_fn is None:
            message_fn = TailMessage(message_tail)
        self.message_fn = message_fn

    def evaluate(self, view, collect):
        fail = self.mask_fn(view)
        if fail is None or not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        emit = make_emit(view, idx, self.offset, self.rule, self.definition,
                         self.message_fn)
        return NodeResult(fail, [emit])


class ConstantRule(Rule):
    """Outcome decided at compile time for every non-null element (e.g.
    ``required`` against a struct type)."""

    def __init__(self, rule, definition, fails, message_tail,
                 applies_to_null=False, message_fn=None):
        super().__init__()
        self.rule = rule
        self.definition = definition
        self.fails = fails
        self.applies_to_null = applies_to_null
        if message_fn is None:
            message_fn = TailMessage(message_tail)
        self.message_fn = message_fn

    def evaluate(self, view, collect):
        if not self.fails:
            return NodeResult(None, [])
        fail = np.ones(view.n, dtype=bool) if self.applies_to_null \
            else view.valid_mask().copy()
        if not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        emit = make_emit(view, idx, self.offset, self.rule, self.definition,
                         self.message_fn)
        return NodeResult(fail, [emit])


class NodePlan:
    """Ordered rules for one (definition, arrow type) pair."""

    def __init__(self, rules):
        self.rules = rules
        self.span = max(sum(r.span for r in rules), 1)

    def set_offset(self, value):
        off = value
        for r in self.rules:
            r.set_offset(off)
            off += r.span

    def evaluate(self, view: View, collect: bool) -> NodeResult:
        fail = None
        emits = []
        for rule in self.rules:
            res = rule.evaluate(view, collect)
            fail = _or(fail, res.fail)
            emits.extend(res.emits)
        return NodeResult(fail, emits)

    def fail_mask(self, view, collect) -> np.ndarray:
        res = self.evaluate(view, collect)
        return _zeros(view.n) if res.fail is None else res.fail


class CompositeRule(Rule):
    """Sub-rules sharing this slot range sequentially (allOf, dependencies)."""

    def __init__(self, rules):
        super().__init__()
        self.rules = rules
        self.span = max(sum(r.span for r in rules), 1)

    def set_offset(self, value):
        super().set_offset(value)
        off = value
        for r in self.rules:
            r.set_offset(off)
            off += r.span

    def evaluate(self, view, collect):
        fail = None
        emits = []
        for r in self.rules:
            res = r.evaluate(view, collect)
            fail = _or(fail, res.fail)
            emits.extend(res.emits)
        return NodeResult(fail, emits)


class SubSchemaRule(Rule):
    """A nested full schema evaluated on the same view (allOf branches,
    schema-form dependencies)."""

    def __init__(self, plan: NodePlan):
        super().__init__()
        self.plan = plan
        self.span = plan.span

    def set_offset(self, value):
        super().set_offset(value)
        self.plan.set_offset(value)

    def evaluate(self, view, collect):
        return self.plan.evaluate(view, collect)


class AnyOfRule(Rule):
    def __init__(self, plans, definition):
        super().__init__()
        self.plans = plans
        self.definition = definition
        self.span = sum(p.span for p in plans) + 1

    def set_offset(self, value):
        super().set_offset(value)
        off = value
        for p in self.plans:
            p.set_offset(off)
            off += p.span
        self._own_off = off

    def evaluate(self, view, collect):
        if collect:
            # Reference collect-mode quirk (generator.py:277-295 +
            # draft04.py:196-204): branch errors are appended rather than
            # raised, so the first branch always "passes" and the
            # `if not count:` guard skips every later branch — only branch
            # 0's violations leak, and the anyOf-level error fires only with
            # zero branches.
            if self.plans:
                res = self.plans[0].evaluate(view, collect)
                return NodeResult(res.fail, res.emits)
            fail = np.ones(view.n, dtype=bool)
            return NodeResult(fail, [self._own(view, fail)])
        ok = _zeros(view.n)
        for p in self.plans:
            ok |= ~p.fail_mask(view, collect)
            if ok.all():
                return NodeResult(None, [])
        fail = ~ok
        return NodeResult(fail, [self._own(view, fail)])

    def _own(self, view, fail):
        idx = np.nonzero(fail)[0]
        return make_emit(view, idx, self._own_off, 'anyOf', self.definition,
                         TailMessage(' cannot be validated by any definition'))


class OneOfRule(Rule):
    def __init__(self, plans, definition):
        super().__init__()
        self.plans = plans
        self.definition = definition
        self.span = sum(p.span for p in plans) + 1

    def set_offset(self, value):
        super().set_offset(value)
        off = value
        for p in self.plans:
            p.set_offset(off)
            off += p.span
        self._own_off = off

    def evaluate(self, view, collect):
        if collect:
            # Collect-mode quirk: the `if count < 2:` guard means only the
            # first two branches run (leaking their errors); count then
            # equals min(len, 2) for every row.
            emits = []
            leak_fail = None
            for p in self.plans[:2]:
                res = p.evaluate(view, collect)
                leak_fail = _or(leak_fail, res.fail)
                emits.extend(res.emits)
            count = min(len(self.plans), 2)
            if count == 1:
                return NodeResult(leak_fail, emits)
            fail = np.ones(view.n, dtype=bool)
            counts = np.full(view.n, count, dtype=np.int64)
            emits.append(self._own(view, fail, counts))
            return NodeResult(fail, emits)
        counts = np.zeros(view.n, dtype=np.int64)
        for p in self.plans:
            active = counts < 2
            counts += (active & ~p.fail_mask(view, collect)).astype(np.int64)
        fail = counts != 1
        if not fail.any():
            return NodeResult(None, [])
        return NodeResult(fail, [self._own(view, fail, counts)])

    def _own(self, view, fail, counts):
        idx = np.nonzero(fail)[0]

        def message_fn(v, i, _c=counts):
            return ['{} must be valid exactly by one definition ({} matches found)'
                    .format(name, int(_c[j])) for name, j in zip(v.names(i), i)]
        return make_emit(view, idx, self._own_off, 'oneOf', self.definition,
                         message_fn)


class NotRule(Rule):
    def __init__(self, plan, definition, mode):
        super().__init__()
        self.plan = plan
        self.definition = definition
        self.mode = mode    # 'schema' | 'always' | 'always_disallowed'
        self.span = (plan.span if plan is not None else 0) + 1

    def set_offset(self, value):
        super().set_offset(value)
        if self.plan is not None:
            self.plan.set_offset(value)
        self._own_off = value + (self.plan.span if self.plan is not None else 0)

    def evaluate(self, view, collect):
        if self.mode == 'always':
            fail = np.ones(view.n, dtype=bool)
            return NodeResult(fail, [self._own(view, fail, ' must not be there')])
        if self.mode == 'always_disallowed':
            fail = np.ones(view.n, dtype=bool)
            return NodeResult(fail, [self._own(
                view, fail, ' must NOT match a disallowed definition')])
        if collect:
            emits = list(self.plan.evaluate(view, collect).emits)
            fail = np.ones(view.n, dtype=bool)
            emits.append(self._own(
                view, fail, ' must NOT match a disallowed definition'))
            return NodeResult(fail, emits)
        fail = ~self.plan.fail_mask(view, collect)
        if not fail.any():
            return NodeResult(None, [])
        return NodeResult(fail, [self._own(
            view, fail, ' must NOT match a disallowed definition')])

    def _own(self, view, fail, tail):
        idx = np.nonzero(fail)[0]
        return make_emit(view, idx, self._own_off, 'not', self.definition,
                         TailMessage(tail))


class IfThenElseRule(Rule):
    def __init__(self, if_plan, then_plan, else_plan):
        super().__init__()
        self.if_plan = if_plan
        self.then_plan = then_plan
        self.else_plan = else_plan
        if_span = if_plan.span
        then_span = then_plan.span if then_plan else 0
        else_span = else_plan.span if else_plan else 0
        # The if-plan needs key slots too: in collect mode its errors leak
        # and must sort at this node's position, before then/else.
        self.span = max(if_span + then_span + else_span, 1)
        self._then_rel = if_span
        self._else_rel = if_span + then_span

    def set_offset(self, value):
        super().set_offset(value)
        self.if_plan.set_offset(value)
        if self.then_plan:
            self.then_plan.set_offset(value + self._then_rel)
        if self.else_plan:
            self.else_plan.set_offset(value + self._else_rel)

    def evaluate(self, view, collect):
        if collect:
            # Collect-mode quirk: the `if` branch appends its errors without
            # raising, so `then` always runs and `else` never does — and the
            # leaked `if` errors make the document invalid.
            if_res = self.if_plan.evaluate(view, collect)
            emits = list(if_res.emits)
            fail = if_res.fail
            if self.then_plan:
                res = self.then_plan.evaluate(view, collect)
                fail = _or(fail, res.fail)
                emits.extend(res.emits)
            return NodeResult(fail, emits)
        cond_fail = self.if_plan.fail_mask(view, collect)
        fail = None
        emits = []
        if self.then_plan:
            res = self.then_plan.evaluate(view, collect)
            if res.fail is not None:
                fail = _or(fail, res.fail & ~cond_fail)
            for e in res.emits:
                emits.append(e.filtered(~cond_fail[e.rows]))
        if self.else_plan:
            res = self.else_plan.evaluate(view, collect)
            if res.fail is not None:
                fail = _or(fail, res.fail & cond_fail)
            for e in res.emits:
                emits.append(e.filtered(cond_fail[e.rows]))
        return NodeResult(fail, emits)


class ListItemsRule(Rule):
    """Homogeneous ``items`` schema: flatten the list column, evaluate the
    child plan over the flat view, roll failures up via repeat-offsets.
    Order keys expand element-major (see module docstring)."""

    def __init__(self, child_plan):
        super().__init__()
        self.child = child_plan
        self.span = child_plan.span

    def set_offset(self, value):
        super().set_offset(value)
        self.child.set_offset(value)

    def evaluate(self, view, collect):
        lens = view.list_lengths()
        total = int(lens.sum())
        if total == 0:
            return NodeResult(None, [])
        flat = pc.list_flatten(view.arr)
        parents = np.repeat(np.arange(view.n, dtype=np.int64), lens)
        positions = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens)
        parent_name = view.name_fn

        def name_fn(i):
            return '{}[{}]'.format(parent_name(int(parents[i])),
                                   int(positions[i]))

        child_view = View(flat, name_fn)
        res = self.child.evaluate(child_view, collect)
        if res.fail is None and not res.emits:
            return NodeResult(None, [])
        fail = _zeros(view.n)
        if res.fail is not None and res.fail.any():
            np.bitwise_or.at(fail, parents[res.fail], True)
        base = self.offset
        emits = []
        for e in res.emits:
            new_rows = parents[e.rows]
            new_key = np.empty(len(e.rows), dtype=object)
            new_key[:] = [
                (base, int(positions[r])) + k
                for r, k in zip(e.rows, e.entry_keys())
            ]
            emits.append(e.remapped(new_rows, new_key))
        return NodeResult(fail, emits)


class TupleItemsRule(Rule):
    """Tuple-form ``items`` (+ ``additionalItems``) over homogeneous Arrow
    lists: a sub-plan per declared index, then the additional-items schema
    (or forbid) for the tail."""

    def __init__(self, definition_expanded, plans, additional, add_plan):
        super().__init__()
        self.defn = definition_expanded
        self.plans = plans
        self.additional = additional      # _MISSING | False | True | schema
        self.add_plan = add_plan
        self.n_tuple = len(plans)
        self._forbid_rel = sum(p.span for p in plans)
        add_span = add_plan.span if add_plan else 0
        self.span = self._forbid_rel + 1 + add_span

    def set_offset(self, value):
        super().set_offset(value)
        off = value
        for p in self.plans:
            p.set_offset(off)
            off += p.span
        self._forbid_off = value + self._forbid_rel
        if self.add_plan:
            self.add_plan.set_offset(self._forbid_off + 1)

    def evaluate(self, view, collect):
        lens = view.list_lengths()
        total = int(lens.sum())
        flat = pc.list_flatten(view.arr) if total else None
        starts = np.cumsum(lens) - lens
        parent_name = view.name_fn
        fail = None
        emits = []
        for pos, plan in enumerate(self.plans):
            has = lens > pos
            if not has.any():
                continue
            rows = np.nonzero(has)[0].astype(np.int64)
            elem_idx = starts[rows] + pos
            sub_arr = flat.take(pa.array(elem_idx, type=pa.int64()))

            def name_fn(i, _rows=rows, _pos=pos):
                return '{}[{}]'.format(parent_name(int(_rows[i])), _pos)

            sub_view = View(sub_arr, name_fn)
            res = plan.evaluate(sub_view, collect)
            if res.fail is not None and res.fail.any():
                f = _zeros(view.n)
                f[rows[res.fail]] = True
                fail = _or(fail, f)
            for e in res.emits:
                emits.append(e.remapped(rows[e.rows], e.key))
        if self.additional is False:
            over = lens > self.n_tuple
            over &= view.valid_mask()
            if over.any():
                idx = np.nonzero(over)[0]
                emits.append(make_emit(
                    view, idx, self._forbid_off, 'items', self.defn,
                    TailMessage(' must contain only specified items')))
                fail = _or(fail, over)
        elif self.add_plan is not None:
            extra = np.maximum(lens - self.n_tuple, 0)
            tot_extra = int(extra.sum())
            if tot_extra:
                rows = np.repeat(np.arange(view.n, dtype=np.int64), extra)
                pos_in_row = (np.arange(tot_extra, dtype=np.int64)
                              - np.repeat(np.cumsum(extra) - extra, extra)
                              + self.n_tuple)
                elem_idx = starts[rows] + pos_in_row
                sub_arr = flat.take(pa.array(elem_idx, type=pa.int64()))

                def name_fn(i, _rows=rows, _pos=pos_in_row):
                    return '{}[{}]'.format(parent_name(int(_rows[i])),
                                           int(_pos[i]))

                sub_view = View(sub_arr, name_fn)
                res = self.add_plan.evaluate(sub_view, collect)
                if res.fail is not None and res.fail.any():
                    f = _zeros(view.n)
                    np.bitwise_or.at(f, rows[res.fail], True)
                    fail = _or(fail, f)
                base = self._forbid_off + 1
                for e in res.emits:
                    new_key = np.empty(len(e.rows), dtype=object)
                    new_key[:] = [
                        (base, int(pos_in_row[r])) + k
                        for r, k in zip(e.rows, e.entry_keys())
                    ]
                    emits.append(e.remapped(rows[e.rows], new_key))
        return NodeResult(fail, emits)


class ContainsRule(Rule):
    def __init__(self, child_plan, definition):
        super().__init__()
        self.child = child_plan
        self.definition = definition
        self.span = child_plan.span + 1

    def set_offset(self, value):
        super().set_offset(value)
        self.child.set_offset(value)
        self._own_off = value + self.child.span

    def evaluate(self, view, collect):
        if collect:
            return self._evaluate_collect(view)
        lens = view.list_lengths()
        total = int(lens.sum())
        any_ok = _zeros(view.n)
        if total:
            flat = pc.list_flatten(view.arr)
            parents = np.repeat(np.arange(view.n, dtype=np.int64), lens)
            child_view = View(flat, lambda i: 'x')
            child_fail = self.child.fail_mask(child_view, False)
            ok_parents = parents[~child_fail]
            if len(ok_parents):
                any_ok[ok_parents] = True
        fail = ~any_ok
        fail &= view.valid_mask()
        if not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        return NodeResult(fail, [make_emit(
            view, idx, self._own_off, 'contains', self.definition,
            TailMessage(' must contain one of contains definition'))])

    def _evaluate_collect(self, view):
        # Reference collect-mode quirk (draft06.py:167-178): the per-element
        # sub-block appends errors instead of raising, so only element 0 is
        # ever examined, its errors leak into the list, and the
        # contains-level error fires only for empty lists.
        lens = view.list_lengths()
        nonempty = lens > 0
        fail = None
        emits = []
        if nonempty.any():
            rows = np.nonzero(nonempty)[0].astype(np.int64)
            starts = (np.cumsum(lens) - lens)[rows]
            flat = pc.list_flatten(view.arr)
            first = flat.take(pa.array(starts, type=pa.int64()))
            parent_name = view.name_fn

            def name_fn(i, _rows=rows):
                # The reference passes the parent variable_name unchanged.
                return parent_name(int(_rows[i]))

            sub_view = View(first, name_fn, view.const_name)
            res = self.child.evaluate(sub_view, True)
            if res.fail is not None and res.fail.any():
                f = _zeros(view.n)
                f[rows[res.fail]] = True
                fail = f
            for e in res.emits:
                emits.append(e.remapped(rows[e.rows], e.key))
        empty = ~nonempty & view.valid_mask()
        if empty.any():
            idx = np.nonzero(empty)[0]
            emits.append(make_emit(
                view, idx, self._own_off, 'contains', self.definition,
                TailMessage(' must contain one of contains definition')))
            fail = _or(fail, empty)
        return NodeResult(fail, emits)


class StructChildrenRule(Rule):
    """Shared machinery for properties / patternProperties /
    additionalProperties-with-schema over struct columns: per-field
    sub-plans, child emits masked where the parent struct row is null."""

    def __init__(self, rule_name, fields):
        super().__init__()
        self.rule_name = rule_name
        self.fields = fields        # list of (key, field_index, plan)
        self.span = max(sum(p.span for _, _, p in fields), 1)

    def set_offset(self, value):
        super().set_offset(value)
        off = value
        for _, _, plan in self.fields:
            plan.set_offset(off)
            off += plan.span

    def evaluate(self, view, collect):
        if not self.fields:
            return NodeResult(None, [])
        parent_valid = view.valid_mask()
        all_valid = bool(parent_valid.all())
        parent_name = view.name_fn
        fail = None
        emits = []
        for key, field_idx, plan in self.fields:
            child = view.arr.field(field_idx)
            if view.const_name is not None:
                child_view = View(child, const_name=view.const_name + '.' + key)
            else:
                def name_fn(i, _key=key):
                    return '{}.{}'.format(parent_name(int(i)), _key)
                child_view = View(child, name_fn)
            res = plan.evaluate(child_view, collect)
            if res.fail is not None:
                fail = _or(fail, res.fail if all_valid else res.fail & parent_valid)
            for e in res.emits:
                emits.append(e if all_valid else e.filtered(parent_valid[e.rows]))
        return NodeResult(fail, emits)


class ForbidExtraColumnsRule(Rule):
    """additionalProperties: False with leftover struct fields — every
    present row violates, message embeds the leftover key set
    (draft04.py:629-631)."""

    def __init__(self, definition, leftover_set):
        super().__init__()
        self.definition = definition
        self.leftover = leftover_set

    def evaluate(self, view, collect):
        fail = view.valid_mask().copy()
        if not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        return NodeResult(fail, [make_emit(
            view, idx, self.offset, 'additionalProperties', self.definition,
            TailMessage(' must not contain {} properties'.format(
                self.leftover)))])


class DependencyMessageRule(Rule):
    """Constant dependency violations over struct fields (forbid / missing)."""

    def __init__(self, definition, template_fn):
        super().__init__()
        self.definition = definition
        self.template_fn = template_fn

    def evaluate(self, view, collect):
        fail = view.valid_mask().copy()
        if not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        tpl = self.template_fn

        def message_fn(v, i):
            if v.const_name is not None:
                return [tpl(v.const_name)] * len(i)
            return [tpl(name) for name in v.names(i)]
        return NodeResult(fail, [make_emit(view, idx, self.offset,
                                           'dependencies', self.definition,
                                           message_fn)])


class PropertyNamesRule(Rule):
    """propertyNames over struct fields; outcomes precomputed at compile
    time from the static field names (see _v_propertyNames)."""

    def __init__(self, definition, ok, leaked, sentinel):
        super().__init__()
        self.definition = definition
        self.ok = ok
        self.leaked = leaked        # collect-mode leaked exceptions
        self.sentinel = sentinel

    def evaluate(self, view, collect):
        if collect:
            if not self.leaked:
                return NodeResult(None, [])
            valid = view.valid_mask()
            if not valid.any():
                return NodeResult(None, [])
            idx = np.nonzero(valid)[0].astype(np.int64)
            n_err = len(self.leaked)
            rows = np.repeat(idx, n_err)
            leaked, sentinel = self.leaked, self.sentinel

            def records(sel, _rows=rows):
                excs = [leaked[s % n_err] for s in sel]
                names = view.names(_rows[sel])
                return (names,
                        [e.message.replace(sentinel, name)
                         for e, name in zip(excs, names)],
                        [e.value for e in excs], [e.rule for e in excs],
                        [e.definition for e in excs])

            fail = valid.copy()
            return NodeResult(fail, [Emit(
                rows, (self.offset,), np.arange(len(rows), dtype=np.int64),
                records)])
        if self.ok:
            return NodeResult(None, [])
        fail = view.valid_mask().copy()
        if not fail.any():
            return NodeResult(None, [])
        idx = np.nonzero(fail)[0]
        return NodeResult(fail, [make_emit(
            view, idx, self.offset, 'propertyNames', self.definition,
            TailMessage(' must be named by propertyName definition'))])


class ContentSiteRule(Rule):
    """Placeholder slot for contentEncoding/contentMediaType at column level.
    The transform itself is executed by TableValidator (it needs to write the
    decoded output column); this rule only reserves the order-key slot so
    decode failures sort exactly where the reference would raise them."""

    def __init__(self, keyword, definition):
        super().__init__()
        self.keyword = keyword
        self.definition = definition

    def evaluate(self, view, collect):
        return NodeResult(None, [])


class RowFallbackRule(Rule):
    """Whole-subtree fallback to the emitted scalar validator, as a rule
    inside the vector plan: exact reference semantics per row at this node's
    position in the order.  Used when compile raises :class:`Unsupported`
    for a sub-schema.  Transforms are discarded (non-root temp-variable
    semantics, draft04.py:553-559)."""

    def __init__(self, validate, collect_validate):
        super().__init__()
        self.validate = validate                # fast-fail validator
        self.collect_validate = collect_validate

    def evaluate(self, view, collect):
        from ..exceptions import JsonSchemaValuesException
        from .arrowutil import pylist_json
        # Map columns must surface as dicts (the reference's object
        # semantics), not pyarrow's list-of-tuples.
        values = pylist_json(view.arr)
        n = view.n
        fail = _zeros(n)
        payloads = []                   # (row, [exceptions])
        for i, value in enumerate(values):
            name = view.name_fn(i)
            try:
                if collect:
                    self.collect_validate(value, name)
                else:
                    self.validate(value, name)
            except JsonSchemaValueException as exc:
                fail[i] = True
                payloads.append((i, [exc]))
            except JsonSchemaValuesException as exc:
                fail[i] = True
                payloads.append((i, exc.errors))
        if not payloads:
            return NodeResult(fail if fail.any() else None, [])
        rows = []
        excs = []
        for i, errs in payloads:
            for exc in errs:
                rows.append(i)
                excs.append(exc)
        rows = np.asarray(rows, dtype=np.int64)

        def records(sel):
            picked = [excs[s] for s in sel]
            return ([e.name for e in picked], [e.message for e in picked],
                    [e.value for e in picked], [e.rule for e in picked],
                    [e.definition for e in picked])

        return NodeResult(fail, [Emit(rows, (self.offset,),
                                      np.arange(len(rows), dtype=np.int64),
                                      records)])


class AlwaysFailRule(Rule):
    """Boolean schema ``False``: everything (including null) fails."""

    def __init__(self, definition):
        super().__init__()
        self.definition = definition

    def evaluate(self, view, collect):
        fail = np.ones(view.n, dtype=bool)
        idx = np.arange(view.n, dtype=np.int64)
        return NodeResult(fail, [make_emit(view, idx, self.offset, None,
                                           self.definition,
                                           TailMessage(' must not be there'))])


# ---------------------------------------------------------------------------
# The compiler


class VectorCompiler:
    """Compiles (definition, arrow type) into a :class:`NodePlan`.

    Shares draft config, registry, flags and row-kernel semantics with a
    :class:`ScalarCompiler`."""

    def __init__(self, scalar: ScalarCompiler):
        self.scalar = scalar
        self.draft = scalar.draft
        self.registry = scalar.registry
        self.order = keyword_order(self.draft)
        self.format_regexs = FORMAT_REGEXS_BY_DRAFT[4 if self.draft <= 4 else self.draft]
        self._ref_depth = 0
        self.content_sites = []     # (path, keyword, definition, ContentSiteRule)
        self._path = ()
        # Content transforms are only writable when the schema sits directly
        # on a column (depth 1, not under composition/lists) — the stack top
        # says whether the node being compiled is such a column node.
        self._content_ok_stack = [False]

    def _expand(self, definition):
        return self.registry.expand_refs(definition)

    # -- node compilation ------------------------------------------------

    def compile_root(self, definition, dtype) -> NodePlan:
        try:
            plan = self.compile_node(definition, dtype)
        except Unsupported:
            # The root defeats the model as a whole (a $ref chain past the
            # inlining depth, such as a pure cycle): it goes scalar, like a
            # node with an UnsupportedNode keyword.
            plan = NodePlan([self._fallback_rule(definition)])
        plan.set_offset(0)
        return plan

    def compile_node(self, definition, dtype: pa.DataType,
                     content_ok: bool = False) -> NodePlan:
        self._content_ok_stack.append(content_ok)
        try:
            return self._compile_node_inner(definition, dtype)
        finally:
            self._content_ok_stack.pop()

    def _compile_node_inner(self, definition, dtype: pa.DataType) -> NodePlan:
        if isinstance(definition, bool):
            if self.draft <= 4:
                raise JsonSchemaDefinitionException('definition must be an object')
            if definition:
                return NodePlan([])
            return NodePlan([AlwaysFailRule(definition)])
        if not isinstance(definition, dict):
            raise JsonSchemaDefinitionException('definition must be an object')
        if '$ref' in definition:
            # Inline the target; recursion is bounded by the finite nesting
            # of the Arrow type plus this guard.
            if self._ref_depth > 64:
                raise Unsupported('$ref nesting too deep to inline')
            self._ref_depth += 1
            try:
                with self.registry.resolving(definition['$ref']) as target:
                    return self.compile_node(target, dtype,
                                             self._content_ok_stack[-1])
            finally:
                self._ref_depth -= 1

        rules = []
        for keyword in self.order:
            if keyword not in definition:
                continue
            method = getattr(self, '_v_' + keyword, None)
            if method is None:
                raise Unsupported('keyword {}'.format(keyword))
            try:
                rule = method(definition, dtype)
            except UnsupportedNode:
                # Sibling-dependent keyword: the whole node goes scalar.
                return NodePlan([self._fallback_rule(definition)])
            except Unsupported:
                rule = self._fallback_rule({keyword: definition[keyword]})
            if rule is not None:
                # A keyword may compile to several ordered rules (e.g.
                # multipleOf's exactness check + 'inifinity reached',
                # two exc() sites in the reference's one keyword).
                if isinstance(rule, (list, tuple)):
                    rules.extend(rule)
                else:
                    rules.append(rule)
        # Custom plugin keywords after the built-ins (functions/plugins).
        from .plugins import REGISTRY as _PLUGINS
        for plug_name, plugin in _PLUGINS.items():
            if plug_name not in definition:
                continue
            rule = None
            if plugin.vector is not None:
                try:
                    rule = plugin.vector(definition, dtype, self)
                except Unsupported:
                    rule = self._fallback_rule(
                        {plug_name: definition[plug_name]})
            if rule is None and plugin.check_value is not None:
                rule = self._plugin_row_rule(plugin, definition)
            if rule is not None:
                rules.append(rule)
        return NodePlan(rules)

    def _plugin_row_rule(self, plugin, definition):
        fn = plugin.check_value
        expanded = self._expand(definition)

        def mask(view):
            values = view.arr.to_pylist()
            return np.fromiter(
                (v is not None and fn(v, definition) is not None
                 for v in values), dtype=bool, count=view.n)

        def message_fn(view, idx):
            return [name + (fn(value, definition) or '')
                    for name, value in zip(view.names(idx),
                                           view.values_at(idx))]

        return SimpleRule(plugin.name, expanded, mask, message_fn=message_fn)

    def _fallback_rule(self, definition):
        """Per-keyword scalar fallback embedded in the vector plan."""
        # use_default is inherited: in-node default insertion changes what
        # later keywords in the SAME node observe (the resulting transform
        # is still discarded per the non-root temp-variable semantics).
        # registry + inline_root: fallback nodes may $ref into the parent
        # document or a remote — resolve through the SHARED registry.
        return RowFallbackRule(*(compile_validator(ScalarCompiler(
            definition, draft=self.draft, formats=self.scalar.custom_formats,
            use_default=self.scalar.use_default,
            use_formats=self.scalar.use_formats,
            detailed_exceptions=self.scalar.detailed, fast_fail=fast_fail,
            registry=self.registry, inline_root=True,
        )) for fast_fail in (True, False)))

    def _simple(self, definition, rule, mask_fn, tail=None, message_fn=None):
        return SimpleRule(rule, self._expand(definition), mask_fn, tail,
                          message_fn)

    def _row_kernel(self, definition, rule, fn, tail=None, message_fn=None):
        def mask(view):
            return row_kernel_mask(view.arr, fn)
        return self._simple(definition, rule, mask, tail, message_fn)

    # -- scalar keywords -------------------------------------------------

    def _v_type(self, definition, dtype):
        types = definition['type']
        types = types if isinstance(types, list) else [types]
        for t in types:
            if t not in ('null', 'boolean', 'number', 'integer', 'string',
                         'array', 'object'):
                raise JsonSchemaDefinitionException('Unknown type')
        tail = ' must be {}'.format(' or '.join(types))
        null_ok = 'null' in types

        def static_ok():
            if _is_string(dtype):
                return 'string' in types
            if pa.types.is_boolean(dtype):
                return 'boolean' in types
            if pa.types.is_integer(dtype):
                return 'integer' in types or 'number' in types
            if pa.types.is_decimal(dtype):
                return 'number' in types
            if pa.types.is_floating(dtype):
                return 'number' in types
            if _is_list(dtype):
                return 'array' in types
            if pa.types.is_struct(dtype) or pa.types.is_map(dtype):
                return 'object' in types
            if pa.types.is_null(dtype):
                return 'null' in types
            if _is_binary(dtype) or pa.types.is_timestamp(dtype) \
                    or pa.types.is_date(dtype) or pa.types.is_time(dtype):
                # Physical engine types with no JSON counterpart: a binary
                # payload column or timestamp never satisfies a JSON type
                # assertion (validate them with engine-level checks instead).
                return False
            raise Unsupported('type check on arrow type {}'.format(dtype))

        integral_float_rescue = (self.draft >= 6 and 'integer' in types
                                 and 'number' not in types
                                 and pa.types.is_floating(dtype))
        ok = static_ok()

        if ok or (null_ok and pa.types.is_null(dtype)):
            if null_ok:
                return None

            def mask(view):
                if view.arr.null_count == 0:
                    return None
                return ~view.valid_mask()
            return self._simple(definition, 'type', mask, tail)

        if integral_float_rescue:
            # draft-06+: a float with zero fractional part counts as integer
            # (draft06.py:56-84).
            def mask(view):
                valid = view.valid_mask()
                vals = np.asarray(view.arr.fill_null(0.0), dtype=np.float64)
                integral = np.equal(vals, np.floor(vals)) & np.isfinite(vals)
                fail = valid & ~integral
                if not null_ok:
                    fail = fail | ~valid
                return fail
            return self._simple(definition, 'type', mask, tail)

        if null_ok:
            def mask(view):
                return view.valid_mask().copy()
            return self._simple(definition, 'type', mask, tail)

        def mask(view):
            return np.ones(view.n, dtype=bool)
        return self._simple(definition, 'type', mask, tail)

    def _v_enum(self, definition, dtype):
        enum = definition['enum']
        if not isinstance(enum, (list, tuple)):
            raise JsonSchemaDefinitionException('enum must be an array')
        tail = ' must be one of ' + _embed_in_source(str(enum))
        return self._membership_rule(definition, 'enum', enum, dtype, tail)

    def _v_const(self, definition, dtype):
        const = definition['const']
        if self.draft <= 4:
            return None
        tail = ' must be same as const definition: {}'.format(
            const if isinstance(const, str) else _embed_in_source(str(const)))
        return self._membership_rule(definition, 'const', [const], dtype, tail)

    def _membership_rule(self, definition, rule, options_all, dtype, tail):
        """Shared enum/const: type-strict membership
        (draft04.py:120-155 semantics)."""
        scalarish = all(
            isinstance(x, (str, int, float, bool)) or x is None
            for x in options_all)
        null_ok = any(x is None for x in options_all)
        if scalarish and (_is_string(dtype) or _is_number(dtype)
                          or pa.types.is_boolean(dtype)):
            if _is_string(dtype):
                options = [x for x in options_all if isinstance(x, str)]
            elif pa.types.is_boolean(dtype):
                options = [x for x in options_all if isinstance(x, bool)]
            else:
                options = [x for x in options_all
                           if isinstance(x, (int, float))
                           and not isinstance(x, bool)]
            if not options:
                def mask(view):
                    if null_ok:
                        return view.valid_mask().copy()
                    return np.ones(view.n, dtype=bool)
                return self._simple(definition, rule, mask, tail)
            if pa.types.is_boolean(dtype) or _is_string(dtype):
                value_set = pa.array(options)
            else:
                # +0.0 collapses -0.0 to 0.0: Arrow's is_in compares floats
                # bitwise, Python's == (the reference semantics) does not.
                value_set = pa.array([float(x) + 0.0 for x in options],
                                     type=pa.float64())

            def mask(view, _vs=value_set):
                arr = view.arr
                if _is_number(arr.type):
                    if not pa.types.is_floating(arr.type):
                        arr = arr.cast(pa.float64())
                    arr = pc.add(arr, 0.0)
                isin = pc.is_in(arr, value_set=_vs, skip_nulls=True)
                fail = ~_np_bool(isin, view.n)
                if null_ok:
                    fail &= view.valid_mask()
                else:
                    fail |= ~view.valid_mask()
                return fail
            return self._simple(definition, rule, mask, tail)

        if pa.types.is_null(dtype):
            fails = not null_ok
            return ConstantRule(rule, self._expand(definition), fails, tail,
                                applies_to_null=True)

        def mask(view):
            from .arrowutil import pylist_json
            vals = pylist_json(view.arr)
            return np.fromiter(
                (not any(enum_value_match(v, o) for o in options_all)
                 for v in vals),
                dtype=bool, count=view.n)
        return self._simple(definition, rule, mask, tail)

    def _v_minLength(self, definition, dtype):
        n = definition['minLength']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('minLength must be a number')
        if not _is_string(dtype):
            return None
        tail = ' must be longer than or equal to {} characters'.format(n)

        def mask(view):
            return _np_bool(pc.less(pc.utf8_length(view.arr), n), view.n)
        return self._simple(definition, 'minLength', mask, tail)

    def _v_maxLength(self, definition, dtype):
        n = definition['maxLength']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('maxLength must be a number')
        if not _is_string(dtype):
            return None
        tail = ' must be shorter than or equal to {} characters'.format(n)

        def mask(view):
            return _np_bool(pc.greater(pc.utf8_length(view.arr), n), view.n)
        return self._simple(definition, 'maxLength', mask, tail)

    def _regex_mask_rule(self, definition, rule, pattern, tail, match_mode):
        """Build a regex rule: Arrow RE2 kernel when RE2 gives the same
        verdicts (:func:`_re2_pattern`), else a Python-``re`` row kernel.

        match_mode 'search': reference `pattern` semantics (re.search with
        `$`→`\\Z` rewrite, draft04.py:283-290); 'match': `format` semantics
        (re.match, draft04.py:328-333)."""
        if match_mode == 'search':
            rx = re.compile(_DOLLAR_FINDER.sub(r'\\Z', pattern))
        else:
            rx = re.compile(pattern)
        re2_pattern = _re2_pattern(pattern, match_mode)
        if re2_pattern is not None:
            def mask(view, _p=re2_pattern):
                hit = pc.match_substring_regex(view.arr, pattern=_p)
                fail = ~_np_bool(hit, view.n)
                fail &= view.valid_mask()
                return fail
            return self._simple(definition, rule, mask, tail)
        if match_mode == 'search':
            return self._row_kernel(definition, rule,
                                    lambda v: not rx.search(v), tail)
        return self._row_kernel(definition, rule,
                                lambda v: not rx.match(v), tail)

    def _v_pattern(self, definition, dtype):
        pattern = definition['pattern']
        if not _is_string(dtype):
            return None
        return self._regex_mask_rule(definition, 'pattern', pattern,
                                     ' must match pattern ' + pattern, 'search')

    def _v_format(self, definition, dtype):
        if not self.scalar.use_formats:
            return None
        format_ = definition['format']
        if not _is_string(dtype):
            return None
        tail = ' must be ' + format_
        if format_ in self.scalar.custom_formats:
            custom = self.scalar.custom_formats[format_]
            if isinstance(custom, str):
                return self._regex_mask_rule(definition, 'format', custom,
                                             tail, 'match')
            fn = custom
            return self._row_kernel(definition, 'format',
                                    lambda v: not fn(v), tail)
        if format_ in self.format_regexs:
            return self._regex_mask_rule(
                definition, 'format', self.format_regexs[format_], tail,
                'match')
        if format_ == 'regex':
            def bad_regex(v):
                try:
                    re.compile(v)
                    return False
                except Exception:
                    return True
            return self._row_kernel(definition, 'format', bad_regex,
                                    ' must be a valid regex')
        return None

    def _bound_rule(self, definition, keyword, dtype, cmp_fail, tail_fmt):
        bound = definition[keyword]
        if not isinstance(bound, (int, float, Decimal)):
            article = ('an integer, a float or a decimal'
                       if keyword.startswith('exclusive') else 'a number')
            raise JsonSchemaDefinitionException(
                '{} must be {}'.format(keyword, article))
        if not _is_number(dtype):
            return None
        runtime = float(str(bound)) if isinstance(bound, Decimal) else bound
        tail = tail_fmt.format(bound)

        def mask(view):
            fail = _np_bool(cmp_fail(view.arr, runtime), view.n)
            fail &= view.valid_mask()
            return fail
        return self._simple(definition, keyword, mask, tail)

    def _v_minimum(self, definition, dtype):
        if definition.get('exclusiveMinimum', False):
            return self._bound_rule(definition, 'minimum', dtype,
                                    pc.less_equal, ' must be bigger than {}')
        return self._bound_rule(definition, 'minimum', dtype, pc.less,
                                ' must be bigger than or equal to {}')

    def _v_maximum(self, definition, dtype):
        if definition.get('exclusiveMaximum', False):
            return self._bound_rule(definition, 'maximum', dtype,
                                    pc.greater_equal,
                                    ' must be smaller than {}')
        return self._bound_rule(definition, 'maximum', dtype, pc.greater,
                                ' must be smaller than or equal to {}')

    def _v_exclusiveMinimum(self, definition, dtype):
        if self.draft <= 4:
            return None
        return self._bound_rule(definition, 'exclusiveMinimum', dtype,
                                pc.less_equal, ' must be bigger than {}')

    def _v_exclusiveMaximum(self, definition, dtype):
        if self.draft <= 4:
            return None
        return self._bound_rule(definition, 'exclusiveMaximum', dtype,
                                pc.greater_equal, ' must be smaller than {}')

    def _v_multipleOf(self, definition, dtype):
        mo = definition['multipleOf']
        if not isinstance(mo, (int, float, Decimal)):
            raise JsonSchemaDefinitionException('multipleOf must be a number')
        if not _is_number(dtype):
            return None
        tail = ' must be multiple of {}'.format(mo)
        use_decimal = isinstance(mo, float)
        mo_rt = float(str(mo)) if isinstance(mo, Decimal) else mo

        if not use_decimal and pa.types.is_integer(dtype) and mo_rt != 0:
            mo_int = int(mo_rt)
            if mo_int == mo_rt:
                def mask(view):
                    vals = np.asarray(view.arr.fill_null(0))
                    fail = (vals % mo_int) != 0
                    fail &= view.valid_mask()
                    return fail
                return self._simple(definition, 'multipleOf', mask, tail)

        # Second exc() site in the reference's one keyword
        # (draft04.py:369-371): AFTER the exactness check, a float
        # division that overflows raises the bare message 'inifinity
        # reached' (sic, no name prefix) — a separate ordered rule so
        # collect mode records both violations like the reference does.
        def inf_fails(v):
            return v / mo_rt == float('inf')

        inf_rule = self._row_kernel(
            definition, 'multipleOf', inf_fails,
            message_fn=lambda view, idx: ['inifinity reached'] * len(idx))

        def _nonfinite(v):
            # Reference crashes (ValueError/OverflowError) at
            # int(quotient) on nan/inf; engine reports a clean violation
            # instead (documented divergence, scalar path agrees).
            return isinstance(v, float) and (
                v != v or v == float('inf') or v == float('-inf'))

        if use_decimal:
            # Decimal-exact per-row check (draft04.py:357-371): 19.01/0.01
            # must be exactly 1901; no float kernel can guarantee that.
            def fails(v):
                if _nonfinite(v):
                    return True
                quotient = Decimal(repr(v)) / Decimal(repr(mo_rt))
                return int(quotient) != quotient
            return [self._row_kernel(definition, 'multipleOf', fails, tail),
                    inf_rule]

        def fails(v):
            if _nonfinite(v):
                return True
            quotient = v / mo_rt
            return int(quotient) != quotient
        return [self._row_kernel(definition, 'multipleOf', fails, tail),
                inf_rule]

    # -- array keywords --------------------------------------------------

    def _v_minItems(self, definition, dtype):
        n = definition['minItems']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('minItems must be a number')
        if not _is_list(dtype):
            return None
        tail = ' must contain at least {} items'.format(n)

        def mask(view):
            fail = view.list_lengths() < n
            fail &= view.valid_mask()
            return fail
        return self._simple(definition, 'minItems', mask, tail)

    def _v_maxItems(self, definition, dtype):
        n = definition['maxItems']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('maxItems must be a number')
        if not _is_list(dtype):
            return None
        tail = ' must contain less than or equal to {} items'.format(n)

        def mask(view):
            fail = view.list_lengths() > n
            fail &= view.valid_mask()
            return fail
        return self._simple(definition, 'maxItems', mask, tail)

    def _v_uniqueItems(self, definition, dtype):
        if not definition['uniqueItems']:
            return None
        if not _is_list(dtype):
            return None
        value_type = dtype.value_type
        tail = ' must contain unique items'

        if (_is_string(value_type) or _is_number(value_type)
                or pa.types.is_boolean(value_type)):
            def mask(view):
                lens = view.list_lengths()
                total = int(lens.sum())
                if total == 0:
                    return None
                flat = pc.list_flatten(view.arr)
                rows = np.repeat(np.arange(view.n, dtype=np.int64), lens)
                # Integer codes: equal value ⇔ equal code; nulls share a
                # code (None == None per the reference's freeze fn,
                # draft04.py:412-419).
                if _is_string(value_type):
                    codes = np.asarray(
                        flat.dictionary_encode().indices.fill_null(-1)
                    ).astype(np.int64)
                elif pa.types.is_boolean(value_type):
                    codes = np.asarray(
                        flat.cast(pa.int8()).fill_null(-1)).astype(np.int64)
                else:
                    vals = np.asarray(flat.cast(pa.float64()).fill_null(np.nan))
                    _, codes = np.unique(vals, return_inverse=True)
                    codes = codes.astype(np.int64)
                    if flat.null_count:
                        codes[~np.asarray(flat.is_valid())] = -1
                order = np.lexsort((codes, rows))
                srows, scodes = rows[order], codes[order]
                dup = np.zeros(total, dtype=bool)
                if total > 1:
                    dup[1:] = (srows[1:] == srows[:-1]) & (scodes[1:] == scodes[:-1])
                fail = _zeros(view.n)
                if dup.any():
                    fail[np.unique(srows[dup])] = True
                return fail
            return self._simple(definition, 'uniqueItems', mask, tail)

        def fails(v):
            return len(v) > len({_freeze(x) for x in v})
        return self._row_kernel(definition, 'uniqueItems', fails, tail)

    def _v_items(self, definition, dtype):
        items_definition = definition['items']
        if items_definition is True:
            return None
        if not _is_list(dtype):
            return None
        if items_definition is False:
            def mask(view):
                fail = view.list_lengths() > 0
                fail &= view.valid_mask()
                return fail
            return self._simple(definition, 'items', mask, ' must not be there')
        if isinstance(items_definition, list):
            for d in items_definition:
                if self.scalar.use_default and isinstance(d, dict) \
                        and 'default' in d:
                    raise Unsupported('tuple items defaults need scalar path')
            plans = [self.compile_node(d, dtype.value_type)
                     for d in items_definition]
            additional = definition.get('additionalItems', _MISSING)
            add_plan = None
            if additional is not _MISSING and additional not in (False, True):
                add_plan = self.compile_node(additional, dtype.value_type)
            return TupleItemsRule(self._expand(definition), plans, additional,
                                  add_plan)
        if not items_definition:
            return None
        child = self.compile_node(items_definition, dtype.value_type)
        return ListItemsRule(child)

    def _v_contains(self, definition, dtype):
        if self.draft <= 4:
            return None
        contains_definition = definition['contains']
        if not _is_list(dtype):
            return None
        expanded = self._expand(definition)
        if contains_definition is False:
            def mask(view):
                return view.valid_mask().copy()
            return self._simple(definition, 'contains', mask,
                                ' is always invalid')
        if contains_definition is True:
            def mask(view):
                fail = view.list_lengths() == 0
                fail &= view.valid_mask()
                return fail
            return self._simple(definition, 'contains', mask,
                                ' must not be empty')
        child = self.compile_node(contains_definition, dtype.value_type)
        return ContainsRule(child, expanded)

    # -- object keywords --------------------------------------------------

    def _v_minProperties(self, definition, dtype):
        n = definition['minProperties']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('minProperties must be a number')
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        return ConstantRule(
            'minProperties', self._expand(definition), dtype.num_fields < n,
            ' must contain at least {} properties'.format(n))

    def _v_maxProperties(self, definition, dtype):
        n = definition['maxProperties']
        if not isinstance(n, (int, float)):
            raise JsonSchemaDefinitionException('maxProperties must be a number')
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        return ConstantRule(
            'maxProperties', self._expand(definition), dtype.num_fields > n,
            ' must contain less than or equal to {} properties'.format(n))

    def _v_required(self, definition, dtype):
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
                and not any(re.search(rx, prop)
                            for rx in definition.get('patternProperties', {}))
            ]
            if not_possible:
                raise JsonSchemaDefinitionException(
                    'data: items {} are required but not allowed'.format(
                        not_possible))
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        missing = sorted(set(required) - {f.name for f in dtype})
        return ConstantRule(
            'required', self._expand(definition), bool(missing),
            ' must contain {} properties'.format(missing))

    def _v_dependencies(self, definition, dtype):
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        present = {f.name for f in dtype}
        expanded = self._expand(definition)
        rules = []
        for key, values in definition['dependencies'].items():
            if values == [] or values is True or key not in present:
                continue
            if values is False:
                rules.append(DependencyMessageRule(
                    expanded,
                    lambda name, _k=key: '{} in {} must not be there'.format(_k, name)))
            elif isinstance(values, list):
                for dep in values:
                    if dep not in present:
                        rules.append(DependencyMessageRule(
                            expanded,
                            lambda name, _d=dep, _k=key:
                            '{} missing dependency {} for {}'.format(name, _d, _k)))
            else:
                rules.append(SubSchemaRule(self.compile_node(values, dtype)))
        if not rules:
            return None
        return CompositeRule(rules)

    def _v_properties(self, definition, dtype):
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        names = {f.name: i for i, f in enumerate(dtype)}
        fields = []
        for key, prop_definition in definition['properties'].items():
            if not isinstance(prop_definition, (dict, bool)):
                raise JsonSchemaDefinitionException(
                    'data[{}] must be object'.format(
                        re.sub(r'($[^a-zA-Z]|[^a-zA-Z0-9])', '', key)))
            if key in names:
                self._path = self._path + (key,)
                try:
                    plan = self.compile_node(
                        prop_definition, dtype.field(names[key]).type,
                        content_ok=(len(self._path) == 1))
                except Unsupported:
                    # Per-column scalar fallback keeps the rest of the table
                    # vectorized when one column's schema defeats the model.
                    plan = NodePlan([self._fallback_rule(prop_definition)])
                finally:
                    self._path = self._path[:-1]
                fields.append((key, names[key], plan))
            elif self.scalar.use_default and isinstance(prop_definition, dict) \
                    and 'default' in prop_definition:
                # Column absent: default injection is a table-level
                # transform handled by TableValidator before compilation.
                raise Unsupported('missing column with default')
        return StructChildrenRule('properties', fields)

    def _v_patternProperties(self, definition, dtype):
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        keys = [f.name for f in dtype]
        names = {f.name: i for i, f in enumerate(dtype)}
        fields = []
        for pattern, sub_definition in definition['patternProperties'].items():
            rx = re.compile(pattern)
            for key in keys:
                if rx.search(key):
                    fields.append((key, names[key],
                                   self.compile_node(sub_definition,
                                                     dtype.field(names[key]).type)))
        return StructChildrenRule('patternProperties', fields)

    def _v_additionalProperties(self, definition, dtype):
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        add = definition['additionalProperties']
        keys = [f.name for f in dtype]
        names = {f.name: i for i, f in enumerate(dtype)}
        consumed = set(definition.get('properties', {}).keys())
        for pattern in definition.get('patternProperties', {}):
            rx = re.compile(pattern)
            consumed |= {k for k in keys if rx.search(k)}
        # The reference iterates the runtime keys SET (built from all keys,
        # consumed ones removed — draft04.py:621); reproduce that exact set
        # construction so iteration order (and the repr in the forbid
        # message) matches within-process.
        leftover_set = set(keys)
        for k in keys:
            if k in consumed:
                leftover_set.discard(k)
        leftover = list(leftover_set)
        if add is True or add == {}:
            return None
        if add is False:
            if not leftover:
                return None
            return ForbidExtraColumnsRule(self._expand(definition),
                                          leftover_set)
        prop_keys = list(definition.get('properties', {}).keys())
        fields = [
            (k, names[k], self.compile_node(add, dtype.field(names[k]).type))
            for k in leftover if k not in prop_keys
        ]
        return StructChildrenRule('additionalProperties', fields)

    def _v_propertyNames(self, definition, dtype):
        if self.draft <= 4:
            return None
        if pa.types.is_map(dtype):
            raise UnsupportedNode('object keywords on map columns use the scalar path')
        if not pa.types.is_struct(dtype):
            return None
        names_definition = definition.get('propertyNames', {})
        expanded = self._expand(definition)
        keys = [f.name for f in dtype]
        if names_definition is True:
            return None
        if names_definition is False:
            return ConstantRule('propertyNames', expanded, bool(keys),
                                ' must not be there')
        if not keys:
            return None
        # Field names are static → evaluate the name schema once at compile
        # time with the scalar validator.  Both modes are precomputed:
        # fast-fail (does any key fail?) and the reference's collect-mode
        # quirk (draft06.py:127-141) where per-key errors leak into the list
        # and the propertyNames-level error never fires.
        # registry + inline_root: the name schema may $ref into the parent
        # document or a remote — resolve through the SHARED registry (its
        # $refs were already absolutized by the parent's document walk).
        sentinel = '\x00NAME\x00'
        checker = compile_validator(ScalarCompiler(
            names_definition, draft=self.draft,
            use_formats=self.scalar.use_formats,
            formats=self.scalar.custom_formats,
            registry=self.registry, inline_root=True))
        collector = compile_validator(ScalarCompiler(
            names_definition, draft=self.draft, fast_fail=False,
            use_formats=self.scalar.use_formats,
            detailed_exceptions=self.scalar.detailed,
            formats=self.scalar.custom_formats,
            registry=self.registry, inline_root=True))
        ok = True
        leaked = []
        from ..exceptions import JsonSchemaValuesException
        for key in keys:
            try:
                checker(key)
            except JsonSchemaValueException:
                ok = False
            try:
                collector(key, sentinel)
            except JsonSchemaValuesException as exc:
                leaked.extend(exc.errors)
        return PropertyNamesRule(expanded, ok, leaked, sentinel)

    # -- composition -------------------------------------------------------

    def _v_allOf(self, definition, dtype):
        return CompositeRule([
            SubSchemaRule(self.compile_node(item, dtype))
            for item in definition['allOf']
        ])

    def _v_anyOf(self, definition, dtype):
        return AnyOfRule([self.compile_node(i, dtype)
                          for i in definition['anyOf']],
                         self._expand(definition))

    def _v_oneOf(self, definition, dtype):
        return OneOfRule([self.compile_node(i, dtype)
                          for i in definition['oneOf']],
                         self._expand(definition))

    def _v_not(self, definition, dtype):
        nd = definition['not']
        expanded = self._expand(definition)
        if nd is True:
            return NotRule(None, expanded, 'always')
        if nd is False:
            return None
        if not nd:
            return NotRule(None, expanded, 'always_disallowed')
        return NotRule(self.compile_node(nd, dtype), expanded, 'schema')

    def _v_if(self, definition, dtype):
        if self.draft <= 6:
            return None
        if_plan = self.compile_node(definition['if'], dtype)
        then_plan = self.compile_node(definition['then'], dtype) \
            if 'then' in definition else None
        else_plan = self.compile_node(definition['else'], dtype) \
            if 'else' in definition else None
        return IfThenElseRule(if_plan, then_plan, else_plan)

    # -- content transforms ------------------------------------------------

    def _v_contentEncoding(self, definition, dtype):
        if self.draft <= 6:
            return None
        if definition['contentEncoding'] != 'base64':
            return None
        if not self._content_ok_stack[-1] or not _is_string(dtype):
            raise Unsupported('contentEncoding below column level')
        site = ContentSiteRule('contentEncoding', self._expand(definition))
        self.content_sites.append((self._path, 'contentEncoding',
                                   definition, site))
        return site

    def _v_contentMediaType(self, definition, dtype):
        if self.draft <= 6:
            return None
        if definition['contentMediaType'] != 'application/json':
            return None
        if not self._content_ok_stack[-1] or not (
                _is_string(dtype) or _is_binary(dtype)):
            raise Unsupported('contentMediaType below column level')
        site = ContentSiteRule('contentMediaType', self._expand(definition))
        self.content_sites.append((self._path, 'contentMediaType',
                                   definition, site))
        return site


# ---------------------------------------------------------------------------
# Violation collection


class Records:
    """Columnar violation records of one batch, in document-traversal
    order.  ``rows`` and ``site`` are int64 arrays, ``site`` indexing
    ``sites`` (the distinct ``(rule, definition)`` pairs).

    The payload stays as the emits produced it, one ``(names, messages,
    values)`` chunk per emit: a name or message column is one ``str``
    shared by the chunk's entries (a constant-name site) or a list, and
    ``values`` is the view's Arrow elements or a list of Python values
    (scalar fallbacks, content decodes, leaked ``propertyNames`` errors).
    ``perm[i]`` is entry ``i``'s position in the chunks laid end to end.
    Entry ``i`` reads as ``(row, (name, message, rule, definition,
    value))`` with Python values, each chunk's Arrow values decoded on the
    first read."""

    __slots__ = ('rows', 'site', 'sites', 'chunks', 'perm', '_starts',
                 '_decoded')

    def __init__(self, rows, site, sites, chunks, perm):
        self.rows = rows
        self.site = site
        self.sites = sites
        self.chunks = chunks
        self.perm = perm
        sizes = [len(values) for _, _, values in chunks]
        self._starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self._decoded = {}

    def __len__(self):
        return len(self.rows)

    def _values(self, c):
        values = self.chunks[c][2]
        if isinstance(values, list):
            return values
        decoded = self._decoded.get(c)
        if decoded is None:
            from .arrowutil import pylist_json
            decoded = self._decoded[c] = pylist_json(values)
        return decoded

    def __getitem__(self, i):
        j = int(self.perm[i])
        c = int(np.searchsorted(self._starts, j, side='right')) - 1
        k = j - int(self._starts[c])
        names, messages, _ = self.chunks[c]
        rule, definition = self.sites[self.site[i]]
        return (int(self.rows[i]), (
            names if type(names) is str else names[k],
            messages if type(messages) is str else messages[k],
            rule, definition, self._values(c)[k]))

    def __iter__(self):
        return (self[i] for i in range(len(self.rows)))


class _Sites:
    """Distinct (rule, definition) pairs, definitions by identity."""

    def __init__(self):
        self.pairs = []
        self._ix = {}

    def index(self, rule, definition) -> int:
        k = (rule, id(definition))
        i = self._ix.get(k)
        if i is None:
            i = self._ix[k] = len(self.pairs)
            self.pairs.append((rule, definition))
        return i


def collect_violations(result: NodeResult, n_rows: int, fast_fail: bool):
    """Turn a root NodeResult into per-row first/all violation records.

    Returns (valid_mask, :class:`Records`) with the records sorted by
    (row, order key, emit order) — i.e. document-traversal order.  The
    distinct order-key tuples are ranked by Python tuple order, so one
    ``np.lexsort`` over (row, rank, emit) gives that sort; in fast-fail mode
    each row keeps the entries of its smallest key in the first emit holding
    it.  Payloads are built only for the entries kept, one chunk per emit
    (see :class:`Records`), plus the permutation from record order to
    chunk order."""
    valid = np.ones(n_rows, dtype=bool)
    if result.fail is not None:
        valid &= ~result.fail
    emits = [e for e in result.emits if len(e.rows)]
    if not emits:
        empty = np.empty(0, dtype=np.int64)
        return valid, Records(empty, empty, [], [], empty)
    distinct = set()
    for e in emits:
        if type(e.key) is tuple:
            distinct.add(e.key)
        else:
            distinct.update(e.key)
    rank_of = {k: r for r, k in enumerate(sorted(distinct))}
    sizes = [len(e.rows) for e in emits]
    rank = np.concatenate([
        np.full(n, rank_of[e.key], dtype=np.int64) if type(e.key) is tuple
        else np.fromiter((rank_of[k] for k in e.key), dtype=np.int64, count=n)
        for e, n in zip(emits, sizes)])
    rows = np.concatenate([e.rows for e in emits]).astype(np.int64,
                                                          copy=False)
    emit_id = np.repeat(np.arange(len(emits), dtype=np.int64), sizes)
    order = np.lexsort((emit_id, rank, rows))
    if fast_fail:
        srows = rows[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = srows[1:] != srows[:-1]
        first = np.maximum.accumulate(
            np.where(head, np.arange(len(order)), 0))
        srank, semit = rank[order], emit_id[order]
        order = order[(srank == srank[first]) & (semit == semit[first])]

    needed = np.zeros(len(rows), dtype=bool)
    needed[order] = True
    chunks, site = [], []
    sites = _Sites()
    start = 0
    for e, n in zip(emits, sizes):
        local = needed[start:start + n]
        start += n
        if not local.any():
            continue
        sel = e.sel if local.all() else e.sel[local]
        names, messages, values, rules, definitions = e.records(sel)
        chunks.append((names, messages, values))
        if e.site is not None:
            site.append(np.full(len(sel), sites.index(*e.site),
                                dtype=np.int64))
        else:
            site.append(np.fromiter(
                (sites.index(r, d) for r, d in zip(rules, definitions)),
                dtype=np.int64, count=len(sel)))
    # Entry -> position in the chunks, which hold kept entries only.
    perm = (np.cumsum(needed) - 1)[order]
    return valid, Records(rows[order], np.concatenate(site)[perm],
                          sites.pairs, chunks, perm)
