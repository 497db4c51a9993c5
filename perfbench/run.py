"""Benchmark entry point.

One run:

    python3 perfbench/run.py --workload images_validate --seed 1 \\
        --seconds 15 --trace 0

measures one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it carry the detail (quartiles, sample
counts, host fingerprint, per-operator Ray numbers).  The exit code is 1
when any output check finds a wrong answer; a timeout counts as a failed
operation and does not change the exit code.

Every workload at once, with the untraced and traced run side by side:

    python3 perfbench/run.py --all --seed 1 --seconds 15 [--probe]

See perfbench/README.md for what each workload and metric is for.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
from common import (ROOT, CalibratedClock, OpTimeout, Tracer,  # noqa: E402
                    calib_ms, fingerprint, log, median, summary)

WORKLOADS = ('images_validate', 'lineitem_constraints', 'scalar_corpus')
MIN_PASSES = 3
# Interpreter-bound rates (scalar_corpus's rows_per_s, schemas_per_s on
# every workload) are scaled to a reference host speed: raw rate x
# calibration kernel ms measured during the work / CALIB_REF_MS.
CALIB_REF_MS = 15.0
# Rounds of the table-spec compile phase on the Ray workloads.
COMPILE_ROUNDS = 3
COMPILE_ROUND_S = 1.5
# Limit on one set-up in a fresh process.
SETUP_CHILD_TIMEOUT_S = 90.0


def _benchmark_spec():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def _make(args, tracer):
    if args.workload == 'images_validate':
        from images import ImagesValidate
        return ImagesValidate(args.seed, tracer)
    if args.workload == 'lineitem_constraints':
        from lineitem import LineitemConstraints
        return LineitemConstraints(args.seed, tracer, probe=args.probe,
                                   data_dir=args.data_dir)
    from corpus import ScalarCorpus
    return ScalarCorpus(args.seed, tracer)


def compile_rounds(wl):
    """(raw, scaled) schemas/s of the workload's own table spec compiled
    the way its workers compile it, one sample per round of at least
    COMPILE_ROUND_S seconds of compiling."""
    raw, scaled = [], []
    for _ in range(COMPILE_ROUNDS):
        n = 0
        clock = CalibratedClock()
        clock.start()
        while clock.work < COMPILE_ROUND_S:
            wl.compile_validator()
            n += 1
            clock.tick()
        clock.stop()
        raw.append(n / clock.work)
        scaled.append(raw[-1] * clock.calib_ms() / CALIB_REF_MS)
    return raw, scaled


def scalar_panel(engine, groups, value_exc):
    """Per-layer numbers of the two scalar back-ends on (schema, docs)
    groups: compile, emit, exec, and per-document validation time."""
    out = {}
    n_s = len(groups)
    t_comp = t_emit = t_exec = 0.0
    src_bytes = 0
    emitted = 0
    pairs = []
    for schema, docs in groups:
        t = time.perf_counter()
        interp = engine.compile(copy.deepcopy(schema))
        t1 = time.perf_counter()
        src = engine.compile_to_code(copy.deepcopy(schema))
        t2 = time.perf_counter()
        ns = {}
        exec(compile(src, '<compile_to_code>', 'exec'), ns)
        t3 = time.perf_counter()
        t_comp += t1 - t
        t_emit += t2 - t1
        t_exec += t3 - t2
        src_bytes += len(src)
        emitted += '_EMBEDDED_RUNTIME' not in src
        pairs.append((interp, ns['validate'], docs))
    out['functions.scalar.compile_us_per_schema'] = t_comp / n_s * 1e6
    out['functions.codegen.emit_us_per_schema'] = t_emit / n_s * 1e6
    out['functions.codegen.exec_us_per_schema'] = t_exec / n_s * 1e6
    out['functions.codegen.source_kb'] = src_bytes / n_s / 1024.0
    out['functions.codegen.emitted_ratio'] = emitted / n_s
    detail = {}
    for route, idx in (('functions.scalar', 0), ('functions.codegen', 1)):
        times = {True: 0.0, False: 0.0}
        counts = {True: 0, False: 0}
        for pair in pairs:
            v = pair[idx]
            for doc in pair[2]:
                d = copy.deepcopy(doc)
                t = time.perf_counter()
                try:
                    v(d)
                    ok = True
                except value_exc:
                    ok = False
                times[ok] += time.perf_counter() - t
                counts[ok] += 1
        total = counts[True] + counts[False]
        out[route + '.us_per_row'] = \
            (times[True] + times[False]) / max(total, 1) * 1e6
        for ok, label in ((True, 'valid'), (False, 'invalid')):
            if counts[ok]:
                detail['{}.us_per_row.{}'.format(route, label)] = \
                    times[ok] / counts[ok] * 1e6
    return out, detail


def import_layers(wl):
    """Imports what the workload uses.  Returns (package, its validation
    exception, seconds from process start), the last being
    setup.import_s."""
    import pyarrow  # noqa: F401
    import python_fastjsonschema_ray as engine
    from python_fastjsonschema_ray.exceptions import JsonSchemaValueException
    if wl.uses_ray:
        import ray  # noqa: F401
        import ray.data  # noqa: F401
    return engine, JsonSchemaValueException, time.perf_counter() - T_START


def set_up(wl, import_s):
    """One set-up, after imports that took ``import_s`` from process start:
    starts Ray (Ray workloads), opens the input and runs the untimed
    warm-up.  Returns its record, in seconds."""
    t = time.perf_counter()
    if wl.uses_ray:
        common.start_ray(common.nproc())
    t_init = time.perf_counter()
    wl.load()
    t_load = time.perf_counter()
    wl.warmup()
    t_end = time.perf_counter()
    return {'setup_s': import_s + t_end - t, 'import_s': import_s,
            'ray_init_s': t_init - t, 'warmup_s': t_end - t_load}


def setup_child(args):
    """--setup-child: one set-up in this fresh process, imports included;
    prints its record as one JSON line."""
    wl = _make(args, Tracer(False))
    _, _, import_s = import_layers(wl)
    wl.prepare(expected=False)
    record = set_up(wl, import_s)
    if wl.uses_ray:
        common.stop_ray()
    print(json.dumps(record))
    return 0


def fresh_setups(args, n):
    """n set-ups, one after another, each in a fresh process so imports
    are paid again.  Returns their time records; a set-up that fails or
    exceeds SETUP_CHILD_TIMEOUT_S is logged and gives no sample."""
    cmd = [sys.executable, os.path.abspath(__file__), '--setup-child',
           '--workload', args.workload, '--seed', str(args.seed)]
    if args.data_dir:
        cmd += ['--data-dir', args.data_dir]
    out = []
    for _ in range(n):
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            stdout, _ = proc.communicate(timeout=SETUP_CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log('set-up exceeded {:.0f} s'.format(SETUP_CHILD_TIMEOUT_S))
            continue
        finally:
            common.stop_process(proc)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log('set-up failed with exit code', proc.returncode)
            continue
        out.append(json.loads(lines[-1]))
    return out


def run_one(args):
    fp = fingerprint()
    spec = _benchmark_spec()
    tracer = Tracer(args.trace == 1)
    wl = _make(args, tracer)

    # Imports count towards set-up, from process start.
    engine, value_exc, import_s = import_layers(wl)

    # Seeded input generation and expected answers: outside set-up, and
    # outside the peak-memory figure (writing 5 to clear_refs resets
    # VmHWM).
    t = time.perf_counter()
    prep = wl.prepare()
    prep['prepare_s'] = time.perf_counter() - t
    common.reset_peak_rss()

    t = time.perf_counter()
    setups = [set_up(wl, import_s)]
    phases = {'prepare_s': prep['prepare_s'],
              'setup_s': time.perf_counter() - t}

    attempted = failed = 0
    wrong = []
    rates, raw_rates, cpu_rates, walls = [], [], [], []
    schema_rates, raw_schema_rates = [], []
    calib = []
    measured = 0.0
    session_dead = False
    timeouts = 0
    passes = []
    t_passes = time.perf_counter()
    while True:
        cpu0 = time.process_time() + common.worker_cpu_seconds()
        try:
            if wl.uses_ray:
                with common.CalibSampler() as sampler:
                    rows, wall, out = wl.run_pass()
            else:
                rows, wall, out = wl.run_pass()
        except Exception as exc:
            # A pass that raises or exceeds its limit fails every
            # operation in it; the session is ended so nothing of it
            # lingers, and what was measured before is reported.
            attempted += wl.ops_per_pass()
            failed += wl.ops_per_pass()
            timeouts += isinstance(exc, OpTimeout)
            log('pass failed:', repr(exc))
            if wl.uses_ray:
                common.stop_ray()
            session_dead = True
            break
        cpu = time.process_time() + common.worker_cpu_seconds() - cpu0
        bad = wl.check(out)
        attempted += out['attempted'] if 'attempted' in out \
            else wl.ops_per_pass()
        failed += out.get('failed', len(bad))
        wrong.extend(bad)
        walls.append(wall)
        raw = rows / wall
        raw_rates.append(raw)
        if wl.uses_ray:
            # Scaled by the kernel time a separate process saw during
            # the pass.
            cpu_rates.append(rows / cpu)
            pass_calib = sampler.calib_ms()
        else:
            # Interleaved with the work in this process; see corpus.py.
            raw_s = out['schemas'] / out['compile_s']
            raw_schema_rates.append(raw_s)
            schema_rates.append(raw_s * out['calib_compile'] / CALIB_REF_MS)
            calib.append(out['calib_compile'])
            pass_calib = out['calib_validate']
            measured += out['compile_s']
        rates.append(raw * pass_calib / CALIB_REF_MS)
        calib.append(pass_calib)
        passes.append({'rows': rows, 'wall_s': wall, 'cpu_s': cpu,
                       'calib_ms': pass_calib})
        measured += wall
        if measured >= args.seconds and len(rates) >= MIN_PASSES:
            break

    if not rates:
        raise SystemExit('no pass completed: nothing was measured')

    phases['passes_s'] = time.perf_counter() - t_passes
    parts = []
    peak = common.peak_rss_mb(parts)

    layers = {}
    layer_detail = {}
    if args.trace == 1 and not session_dead:
        layers, layer_detail = trace_layers(wl, engine, value_exc, walls,
                                            rates, setups[0])

    probe_note = None
    if getattr(wl, 'probe', False) and not session_dead:
        attempted += 1
        try:
            ok, probe_note = wl.run_probe()
        except OpTimeout as exc:
            ok, probe_note = False, 'referential_orders: {}'.format(exc)
            timeouts += 1
            common.stop_ray()
            session_dead = True
        except Exception as exc:
            ok, probe_note = False, 'referential_orders: {!r}'.format(exc)
        if not ok:
            failed += 1

    if wl.uses_ray and not session_dead:
        common.stop_ray()

    # End-to-end extras, untraced run only: more set-ups, each in a
    # fresh process, and the Ray workloads' table-spec compile rounds.
    if args.trace == 0:
        t = time.perf_counter()
        setups += fresh_setups(args, wl.setup_samples - 1)
        phases['fresh_setups_s'] = time.perf_counter() - t
        if not schema_rates:
            t = time.perf_counter()
            raw_schema_rates, schema_rates = compile_rounds(wl)
            phases['compile_rounds_s'] = time.perf_counter() - t

    fp['loadavg_end'] = list(os.getloadavg())
    fp['calib_ms'] = median(calib)

    def setup_part(key):
        return summary([r[key] for r in setups], 's')

    unit = '{}/s'.format(wl.unit_rows)
    detail = {
        'workload': wl.name, 'seed': args.seed, 'seconds': args.seconds,
        'trace': args.trace, 'prepare': prep,
        'rows_per_pass': rows,
        'rows_per_s': summary(rates, unit),
        'rows_per_s_raw': summary(raw_rates, unit),
        'rows_per_s_cpu': summary(cpu_rates, unit + ' per CPU-s'),
        'schemas_per_s': summary(schema_rates, 'schemas/s'),
        'schemas_per_s_raw': summary(raw_schema_rates, 'schemas/s'),
        'pass_wall_s': summary(walls, 's'),
        'passes': passes,
        'setup_s': setup_part('setup_s'),
        'setup.import_s': setup_part('import_s'),
        'setup.ray_init_s': setup_part('ray_init_s') if wl.uses_ray
        else None,
        'setup.warmup_s': setup_part('warmup_s'),
        'fail_ratio': failed / attempted,
        'timeouts': timeouts,
        'attempted': attempted, 'failed': failed,
        'wrong_answers': wrong[:10],
        'probe': probe_note,
        'peak_rss_mb': peak,
        'peak_rss_parts': parts,
        'host': fp,
        'phases': phases,
        'run_s': time.perf_counter() - T_START,
    }
    if layers:
        detail['layers'] = dict(layers, **layer_detail)
        tracer.dump(os.path.join(common.CACHE, 'trace-{}-s{}.json'.format(
            wl.name, args.seed)))

    values = {
        'setup_s': median([r['setup_s'] for r in setups]),
        'rows_per_s': median(rates),
        'schemas_per_s': median(schema_rates),
        'peak_rss_mb': peak,
    }
    names = spec['per_layer'] if args.trace == 1 else spec['end_to_end']
    source = layers if args.trace == 1 else values
    metrics = {}
    for m in names:
        if m['name'] not in source:
            raise SystemExit('metric {} was not measured'.format(m['name']))
        metrics[m['name']] = {'value': source[m['name']], 'unit': m['unit']}
    correct = not wrong
    print(json.dumps({'detail': detail}, default=str))
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0 if correct else 1


def trace_layers(wl, engine, value_exc, walls, rates, setup):
    """Per-layer metrics of the traced run: (the BENCHMARK.json panel,
    the numbers that exist on some workloads only)."""
    panel = {}
    layer_detail, self_s, groups = wl.replay(panel)
    scal, scal_detail = scalar_panel(engine, groups, value_exc)
    panel.update(scal)
    layer_detail.update(scal_detail)
    panel['setup.import_s'] = setup['import_s']
    panel['setup.warmup_s'] = setup['warmup_s']
    panel['host.calib_ms'] = calib_ms()
    panel['trace.rows_per_s'] = median(rates)

    spans = wl.tracer.self_times()
    n_pass = max(len(walls), 1)
    for name, secs in spans.items():
        if name.startswith('pipelines.constraints.'):
            layer_detail[name + '_s'] = secs / n_pass
    if wl.uses_ray:
        ops = {}
        for ds in wl.datasets:
            common.merge_operator_stats(ops, common.ray_operator_stats(
                ds.stats()))
        tasks = 0
        for op, rec in ops.items():
            for k, v in rec.items():
                layer_detail['ray.op.{}.{}'.format(op, k)] = v
            tasks += rec['tasks']
        layer_detail['ray.tasks'] = tasks
        wall = median(walls)
        layer_detail['layers.self_s'] = self_s
        layer_detail['ray.overhead_s'] = wall - sum(self_s.values())
        layer_detail['pass_wall_s'] = wall
    return panel, layer_detail


# ---------------------------------------------------------------------------
# --all: every workload, untraced and traced, as one table


def _run_child(workload, seed, seconds, trace, probe):
    cmd = [sys.executable, os.path.abspath(__file__), '--workload', workload,
           '--seed', str(seed), '--seconds', str(seconds),
           '--trace', str(trace)]
    if probe:
        cmd.append('--probe')
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith('{')]
    detail = result = None
    for ln in lines:
        obj = json.loads(ln)
        if 'detail' in obj:
            detail = obj['detail']
        elif 'metrics' in obj:
            result = obj
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result, detail


def run_all(args):
    status = 0
    for w in WORKLOADS:
        probe = args.probe and w == 'lineitem_constraints'
        rc0, res0, det0 = _run_child(w, args.seed, args.seconds, 0, probe)
        rc1, res1, det1 = _run_child(w, args.seed, args.seconds, 1, False)
        if res0 is None or res1 is None:
            print('{}: no result (exit {}, {})'.format(w, rc0, rc1))
            status = 1
            continue
        if rc0 or rc1 or not res0['correct'] or not res1['correct']:
            status = 1
        print('== {}  correct={}  host nproc={} affinity={} calib={:.2f} ms'
              .format(w, res0['correct'], det0['host']['nproc'],
                      det0['host']['affinity_cpus'],
                      det0['host']['calib_ms']))
        for name in ('setup_s', 'rows_per_s', 'rows_per_s_cpu',
                     'schemas_per_s'):
            s = det0[name]
            if not s['n']:
                continue
            print('   {:<14} {:>12.4g} {:<12} q1 {:.4g}  q3 {:.4g}  n={}'
                  .format(name, s['median'], s['unit'], s['q1'], s['q3'],
                          s['n']))
        print('   {:<14} {:>12.4g} {:<12} n=1'.format(
            'peak_rss_mb', det0['peak_rss_mb'], 'MB'))
        print('   {:<14} {:>12.4g} {:<12} {} of {} operations{}'.format(
            'fail_ratio', det0['fail_ratio'], 'ratio', det0['failed'],
            det0['attempted'],
            ' ({})'.format(det0['probe']) if det0.get('probe') else ''))
        traced = det1['rows_per_s']['median']
        untraced = det0['rows_per_s']['median']
        print('   tracing overhead: traced rows_per_s {:.4g} vs untraced '
              '{:.4g} ({:+.1%}){}'.format(
                  traced, untraced, traced / untraced - 1,
                  '' if common.comparable(det0['host'], det1['host'])
                  else ' NOT COMPARABLE: host fingerprints differ'))
        units = {k: m['unit'] for k, m in res1['metrics'].items()}
        for name, v in sorted(det1.get('layers', {}).items()):
            if isinstance(v, (int, float)):
                print('   {:<56} {:>12.4g} {}'.format(name, v,
                                                      units.get(name, '')))
            else:
                print('   {:<56} {}'.format(name, v))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', choices=WORKLOADS)
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=float, default=15)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--probe', action='store_true',
                    help='end lineitem_constraints with one run of the '
                         'driver query referential_orders')
    ap.add_argument('--data-dir',
                    help='lineitem_constraints: read lineitem, orders and '
                         'customer parquet from this directory instead of '
                         'generating them')
    ap.add_argument('--setup-child', action='store_true',
                    help=argparse.SUPPRESS)
    ap.add_argument('--all', action='store_true',
                    help='run every workload untraced and traced and print '
                         'one table')
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error('--workload is required without --all')
    sys.path.insert(1, ROOT)
    # SIGTERM unwinds like an exception (ray.init installs a handler that
    # does the same), so everything started below is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    common.adopt_orphans()
    try:
        return setup_child(args) if args.setup_child else run_one(args)
    finally:
        if 'ray' in sys.modules:
            common.stop_ray()
        common.stop_all()


if __name__ == '__main__':
    sys.exit(main())
