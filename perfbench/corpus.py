"""``scalar_corpus``: the reference's own API over the conformance corpus,
in one process with no Ray.

Every pass turns all corpus schemas into validators through both public
routes (``compile()``, and ``compile_to_code()`` followed by exec of the
emitted module), then validates every document REPEATS times through both
validators.  Each verdict is compared with the suite's hand-written
``valid`` flag.  The seed fixes the order of schemas and documents.
"""

from __future__ import annotations

import copy
import json
import os
import random
import time

from common import ROOT, CalibratedClock

DRAFTS = (4, 6, 7, 2019)
DRAFT_URI = {4: 'http://json-schema.org/draft-04/schema',
             6: 'http://json-schema.org/draft-06/schema',
             7: 'http://json-schema.org/draft-07/schema',
             2019: None}
REPEATS = 20                # validations of every document per validator


def load_corpus(seed):
    """[(draft, schema, [(data, valid)])] in seeded order."""
    groups = []
    for draft in DRAFTS:
        path = os.path.join(ROOT, 'tests', 'conformance',
                            'draft{}.json'.format(draft))
        with open(path) as f:
            for g in json.load(f):
                schema = copy.deepcopy(g['schema'])
                if isinstance(schema, dict) and DRAFT_URI[draft]:
                    schema.setdefault('$schema', DRAFT_URI[draft])
                tests = [(t['data'], t['valid']) for t in g['tests']]
                groups.append((draft, schema, tests))
    rng = random.Random(seed)
    rng.shuffle(groups)
    for _, _, tests in groups:
        rng.shuffle(tests)
    return groups


def _mutates(schema):
    """Schemas that can insert defaults into the document they validate:
    those documents are copied before every call."""
    return '"default"' in json.dumps(schema)


class ScalarCorpus:
    name = 'scalar_corpus'
    uses_ray = False
    setup_samples = 9           # setup_s is their median
    unit_rows = 'documents'

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer

    def prepare(self, expected=True):
        # The corpus ships with the repository: nothing to generate.
        return {'generate_s': 0.0}

    def load(self):
        import python_fastjsonschema_ray as engine
        from python_fastjsonschema_ray.exceptions import (
            JsonSchemaValueException)
        self.engine = engine
        self.value_exc = JsonSchemaValueException
        self.groups = load_corpus(self.seed)
        self.copy_docs = [_mutates(s) for _, s, _ in self.groups]
        self.schemas = len(self.groups)
        self.rows = sum(len(t) for _, _, t in self.groups)

    def warmup(self):
        """Compiles and runs a fixed slice once (regex and format caches)."""
        for _, schema, tests in self.groups[:40]:
            v = self.engine.compile(copy.deepcopy(schema))
            for data, _ in tests:
                try:
                    v(copy.deepcopy(data))
                except self.value_exc:
                    pass

    def compile_all(self):
        """Both routes over every schema.  Returns (validators by route,
        CalibratedClock of the phase, failures)."""
        interp, emitted = [], []
        failures = []
        clock = CalibratedClock()
        clock.start()
        for _, schema, _ in self.groups:
            try:
                interp.append(self.engine.compile(copy.deepcopy(schema)))
            except Exception as exc:       # counted, not raised
                interp.append(None)
                failures.append('compile: {!r}'.format(exc))
            clock.tick()
        for _, schema, _ in self.groups:
            try:
                src = self.engine.compile_to_code(copy.deepcopy(schema))
                ns = {}
                exec(compile(src, '<compile_to_code>', 'exec'), ns)
                emitted.append(ns['validate'])
            except Exception as exc:
                emitted.append(None)
                failures.append('compile_to_code: {!r}'.format(exc))
            clock.tick()
        clock.stop()
        return (interp, emitted), clock, failures

    def validate_all(self, validators, repeats):
        """Runs every document through the validators; returns
        (documents validated, CalibratedClock of the phase, mismatches)."""
        exc_type = self.value_exc
        groups = self.groups
        copy_docs = self.copy_docs
        bad = 0
        done = 0
        clock = CalibratedClock()
        clock.start()
        for _ in range(repeats):
            for vals in validators:
                for v, (_, _, tests), cp in zip(vals, groups, copy_docs):
                    if v is None:
                        bad += len(tests)
                        continue
                    for data, valid in tests:
                        try:
                            v(copy.deepcopy(data) if cp else data)
                            ok = True
                        except exc_type:
                            ok = False
                        except Exception:
                            ok = None
                        if ok is not valid:
                            bad += 1
                    done += len(tests)
                    clock.tick()
        clock.stop()
        return done, clock, bad

    def run_pass(self):
        """Returns (documents, validate seconds, outputs); the compile
        phase's numbers and both phases' calibration travel in outputs."""
        tr = self.tracer
        with tr.span('pass'):
            with tr.span('functions.compile_all'):
                validators, c_clock, failures = self.compile_all()
            with tr.span('functions.validate_all'):
                docs, v_clock, mismatches = self.validate_all(validators,
                                                              REPEATS)
        return docs, v_clock.work, {
            'schemas': 2 * self.schemas,
            'compile_s': c_clock.work,
            'failures': failures,
            'mismatches': mismatches,
            'attempted': 2 * self.schemas + docs,
            'failed': len(failures) + mismatches,
            'calib_compile': c_clock.calib_ms(),
            'calib_validate': v_clock.calib_ms(),
        }

    def check(self, outputs):
        bad = list(outputs['failures'])
        if outputs['mismatches']:
            bad.append('{} verdicts differ from the suite\'s valid flag'
                       .format(outputs['mismatches']))
        return bad

    def ops_per_pass(self):
        """Both routes compile every schema and validate every document
        REPEATS times."""
        return 2 * self.schemas + 2 * REPEATS * self.rows

    # -- traced-run replay ---------------------------------------------------

    def replay(self, panel):
        import pyarrow as pa
        from python_fastjsonschema_ray.exceptions import (
            JsonSchemaDefinitionException)
        from python_fastjsonschema_ray.pipelines.validate import (
            TableValidator)

        t = time.perf_counter()
        load_corpus(self.seed)
        panel['sources.read_s'] = time.perf_counter() - t

        # Vector plan over one-column tables: every group whose schema has
        # no $ref (relocating it under a wrapper would change what the
        # pointer means) and whose documents form one Arrow column.
        validate_s = vt_s = 0.0
        rows = nviol = 0
        for draft, schema, tests in self.groups:
            if '$ref' in json.dumps(schema):
                continue
            try:
                col = pa.array([d for d, _ in tests])
            except Exception:
                continue
            wrapped = {'properties': {'col': schema}}
            if DRAFT_URI[draft] is not None:
                wrapped['$schema'] = DRAFT_URI[draft]
            table = pa.table({'col': col})
            try:
                tv = TableValidator(wrapped, table.schema, fast_fail=True)
            except JsonSchemaDefinitionException:
                continue
            t = time.perf_counter()
            res = tv.validate_batch(table)
            t1 = time.perf_counter()
            vt = tv.violations_table(table, res)
            validate_s += t1 - t
            vt_s += time.perf_counter() - t1
            rows += table.num_rows
            nviol += vt.num_rows
        panel['functions.vector.us_per_row'] = validate_s / max(rows, 1) \
            * 1e6
        panel['pipelines.validate.violations_table.us_per_violation'] = \
            vt_s / max(nviol, 1) * 1e6
        panel['pipelines.validate.violations'] = nviol
        detail = {'functions.vector.rows': rows}
        groups = [(s, [d for d, _ in tests]) for _, s, tests in self.groups]
        return detail, {}, groups
