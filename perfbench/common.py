"""Shared machinery for the benchmark: host fingerprint, calibration kernel,
spans, per-operation time limits, the Ray session, Ray's own per-operator
statistics and peak resident memory.

Nothing here reaches into the package under test; every number is taken
around calls into its public functions or read from Ray and ``/proc``.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, '.cache')

# Every Ray operation runs under this wall-clock limit (seconds).
OP_TIMEOUT_S = 60.0


def median(values):
    return statistics.median(values) if values else float('nan')


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else float('nan')
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values, unit):
    """Median with quartiles and the sample count, for the detail lines."""
    q1, q2, q3 = quartiles(values)
    return {'median': q2, 'q1': q1, 'q3': q3, 'n': len(values),
            'unit': unit}


# ---------------------------------------------------------------------------
# Host fingerprint and calibration


def nproc():
    """What ``nproc`` prints: it honours OMP_NUM_THREADS, unlike the
    affinity mask."""
    try:
        out = subprocess.run(['nproc'], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or 'unknown'


def _mem_total_mb():
    try:
        with open('/proc/meminfo') as f:
            for line in f:
                if line.startswith('MemTotal:'):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def calib_kernel():
    """Fixed pure-Python work (dict updates, sort, str): its time tracks
    the host's single-thread speed for interpreter-bound code."""
    d = {}
    for i in range(60000):
        k = i % 977
        d[k] = d.get(k, 0) + i
    return len(''.join(str(v) for v in sorted(d.values())))


def calib_ms(repeats=3):
    """Median wall milliseconds of the calibration kernel."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        calib_kernel()
        times.append((time.perf_counter() - t) * 1e3)
    return median(times)


class CalibratedClock:
    """Times work done between ``tick()`` calls and, after every
    ``every_s`` seconds of it, runs the calibration kernel once with its
    own time excluded.  ``calib_ms()`` is the median kernel time over the
    phase, so it reflects the host speed the work itself saw."""

    def __init__(self, every_s=0.1):
        self.every_s = every_s
        self.work = 0.0
        self.kernel_ms = []
        self._since = 0.0
        self._t = None

    def start(self):
        self._t = time.perf_counter()

    def tick(self):
        dt = time.perf_counter() - self._t
        self.work += dt
        self._since += dt
        if self._since >= self.every_s:
            self._since = 0.0
            k = time.perf_counter()
            calib_kernel()
            self.kernel_ms.append((time.perf_counter() - k) * 1e3)
        self._t = time.perf_counter()

    def stop(self):
        self.work += time.perf_counter() - self._t
        if not self.kernel_ms:
            self.kernel_ms.append(calib_ms(1))

    def calib_ms(self):
        return median(self.kernel_ms)


_SAMPLER = """
import sys, time
sys.path.insert(0, sys.argv[1])
from common import calib_kernel
while True:
    t = time.perf_counter()
    calib_kernel()
    print((time.perf_counter() - t) * 1e3, flush=True)
    time.sleep(float(sys.argv[2]))
"""


class CalibSampler:
    """Runs the calibration kernel in a separate process while a Ray pass
    runs, once every ``every_s`` seconds (a few percent of one CPU), so
    its times reflect the host speed during the pass; the driver itself
    mostly waits then.  Use as a context manager; ``calib_ms()`` is the
    median kernel time afterwards, without the first (cold) sample.  The
    sampler exits by itself once nobody reads its output."""

    def __init__(self, every_s=0.2):
        self.every_s = every_s
        self.samples = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, '-c', _SAMPLER, HERE, str(self.every_s)],
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        lines = []
        if exc[0] is None:
            # At least one warm sample, however short the pass was.
            while len(lines) < 2:
                line = self._proc.stdout.readline()
                if not line:
                    break
                lines.append(line)
        self._proc.terminate()
        out, _ = self._proc.communicate()
        self.samples = [float(x) for x in
                        ''.join(lines + [out]).split()][1:]
        return False

    def calib_ms(self):
        return median(self.samples)


def fingerprint():
    """Host fingerprint recorded on every result.  Two results are only
    comparable when their fingerprints (minus the load averages and the
    calibration time, which are measurements) are equal."""
    return {
        'nproc': nproc(),
        'affinity_cpus': len(os.sched_getaffinity(0)),
        'cpu_model': _cpu_model(),
        'mem_total_mb': _mem_total_mb(),
        'python': platform.python_version(),
        'loadavg_start': list(os.getloadavg()),
    }


def comparable(fp_a, fp_b):
    keys = ('nproc', 'affinity_cpus', 'cpu_model', 'mem_total_mb')
    return all(fp_a.get(k) == fp_b.get(k) for k in keys)


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.  When
    disabled, ``span`` costs one attribute check."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {'name': name, 'start': time.perf_counter(), 'end': None,
               'parent': parent}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec['end'] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """name -> summed self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s['parent'] is not None and s['end'] is not None:
                child[s['parent']] += s['end'] - s['start']
        out = {}
        for i, s in enumerate(self.spans):
            if s['end'] is None:
                continue
            out[s['name']] = out.get(s['name'], 0.0) \
                + (s['end'] - s['start']) - child[i]
        return out

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w') as f:
            json.dump(self.spans, f)


# ---------------------------------------------------------------------------
# Time limits


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise OpTimeout in the main thread after ``seconds`` of wall time."""
    def fire(signum, frame):
        raise OpTimeout('operation exceeded {:.0f} s'.format(seconds))

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Processes and memory


def _children_map():
    kids = {}
    for entry in os.listdir('/proc'):
        if not entry.isdigit():
            continue
        try:
            with open('/proc/{}/stat'.format(entry)) as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(')', 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(pid=None):
    pid = os.getpid() if pid is None else pid
    kids = _children_map()
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _cmdline(pid):
    try:
        with open('/proc/{}/cmdline'.format(pid), 'rb') as f:
            return f.read().replace(b'\0', b' ').decode('utf-8', 'replace')
    except OSError:
        return ''


def vm_hwm_mb(pid):
    try:
        with open('/proc/{}/status'.format(pid)) as f:
            for line in f:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid):
    """utime + stime of one process, in seconds (0.0 once it is gone)."""
    try:
        with open('/proc/{}/stat'.format(pid)) as f:
            fields = f.read().rsplit(')', 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf('SC_CLK_TCK')


def worker_cpu_seconds():
    """CPU seconds used so far by the Ray worker processes of this run."""
    return sum(cpu_seconds(pid) for pid in descendants()
               if _cmdline(pid).startswith('ray::'))


def reset_peak_rss():
    with contextlib.suppress(OSError):
        with open('/proc/self/clear_refs', 'w') as f:
            f.write('5')


def peak_rss_mb(parts=None):
    """VmHWM of this process plus every Ray worker process it started
    (read once, at run end; no sampler thread).  ``parts`` collects the
    per-process figures when given."""
    procs = [(os.getpid(), 'driver')] + [
        (pid, cmd.split()[0]) for pid, cmd in
        ((p, _cmdline(p)) for p in descendants()) if cmd.startswith('ray::')]
    total = 0.0
    for pid, label in procs:
        mb = vm_hwm_mb(pid)
        total += mb
        if parts is not None:
            parts.append((label, round(mb, 1)))
    return total


def adopt_orphans():
    """Makes this process the reaper of its orphaned descendants (Linux
    PR_SET_CHILD_SUBREAPER), so a process whose parent died, such as a Ray
    agent whose raylet is gone, stays under this one and is stopped at the
    end."""
    import ctypes
    with contextlib.suppress(Exception):
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)


def stop_all(grace=10.0):
    """SIGTERM every process still under this one, then wait until each has
    ended (SIGKILL after ``grace`` seconds)."""
    pids = descendants()
    for p in pids:
        with contextlib.suppress(OSError):
            os.kill(p, signal.SIGTERM)
    reap(pids, grace)


def _alive(pid):
    """False once the process has exited; a zombie child is reaped."""
    try:
        with open('/proc/{}/stat'.format(pid)) as f:
            state = f.read().rsplit(')', 1)[1].split()[0]
    except OSError:
        return False
    if state in ('Z', 'X'):
        with contextlib.suppress(OSError):
            os.waitpid(pid, os.WNOHANG)
        return False
    return True


def reap(pids, grace=10.0):
    """Wait until every pid has exited; SIGKILL what is left after
    ``grace`` seconds."""
    end = time.time() + grace
    alive = [p for p in pids if _alive(p)]
    while alive and time.time() < end:
        time.sleep(0.05)
        alive = [p for p in alive if _alive(p)]
    for p in alive:
        with contextlib.suppress(OSError):
            os.kill(p, signal.SIGKILL)
    end = time.time() + 5.0
    while alive and time.time() < end:
        time.sleep(0.05)
        alive = [p for p in alive if _alive(p)]


def stop_process(proc, grace=30.0):
    """Ends a child process (SIGTERM, then SIGKILL after ``grace``
    seconds) and waits until it and every process under it have ended."""
    pids = descendants(proc.pid)
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    reap(pids)


# ---------------------------------------------------------------------------
# Ray session


def ray_temp_dir():
    """Ray's session files stay inside the checkout when the path is short
    enough for its Unix sockets (107 bytes, of which the session and socket
    names take about 65); otherwise Ray uses its default."""
    path = os.path.join(ROOT, '.bench_ray')
    return path if len(path) <= 40 else None


def start_ray(num_cpus):
    import ray
    # Workers import the package from the checkout root.
    paths = [ROOT] + [p for p in os.environ.get('PYTHONPATH', '').split(
        os.pathsep) if p]
    os.environ['PYTHONPATH'] = os.pathsep.join(dict.fromkeys(paths))
    kwargs = dict(address='local', num_cpus=num_cpus,
                  include_dashboard=False, log_to_driver=False,
                  object_store_memory=768 * 1024 * 1024,
                  logging_level='ERROR')
    temp = ray_temp_dir()
    if temp is not None:
        os.makedirs(temp, exist_ok=True)
        # Sessions of earlier set-ups and runs are finished: drop them so
        # the directory stays small.
        for name in os.listdir(temp):
            if name.startswith('session_'):
                path = os.path.join(temp, name)
                if os.path.islink(path):
                    os.unlink(path)
                else:
                    shutil.rmtree(path, ignore_errors=True)
        kwargs['_temp_dir'] = temp
    ray.init(**kwargs)
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray():
    """Shut Ray down and wait until every process it started has ended."""
    import ray
    pids = descendants()
    with contextlib.suppress(Exception):
        ray.shutdown()
    reap(pids)


# ---------------------------------------------------------------------------
# Ray's per-operator statistics (parsed from Dataset.stats())

_OP_RE = re.compile(r'^\s*Operator \d+ (.+?): (\d+) tasks executed')
_SUB_RE = re.compile(r'^\s*Suboperator \d+ (.+?): (\d+) tasks executed')
_TOTAL_RE = re.compile(
    r'^\s*\* (Remote wall time|Remote cpu time|Output num rows per block|'
    r'Output size bytes per block):.* ([0-9.]+)(us|ms|s)? total')
_UNITS = {'us': 1e-6, 'ms': 1e-3, 's': 1.0, None: 1.0}


def _op_name(raw):
    # 'ReadParquet->SplitBlocks(13)' -> 'ReadParquet'; keep fused names.
    return re.sub(r'->SplitBlocks\(\d+\)', '', raw).strip()


def ray_operator_stats(stats_text):
    """{operator: {tasks, wall_s, cpu_s, rows_out, bytes_out}} from the
    text of ``Dataset.stats()``."""
    ops = {}
    cur = None
    for line in stats_text.splitlines():
        m = _OP_RE.match(line) or _SUB_RE.match(line)
        if m:
            cur = ops.setdefault(_op_name(m.group(1)), {
                'tasks': 0, 'wall_s': 0.0, 'cpu_s': 0.0,
                'rows_out': 0, 'bytes_out': 0})
            cur['tasks'] += int(m.group(2))
            continue
        if line.strip().startswith('Dataset '):
            cur = None
            continue
        m = _TOTAL_RE.match(line)
        if m and cur is not None:
            value = float(m.group(2)) * _UNITS[m.group(3)]
            key = {'Remote wall time': 'wall_s',
                   'Remote cpu time': 'cpu_s',
                   'Output num rows per block': 'rows_out',
                   'Output size bytes per block': 'bytes_out'}[m.group(1)]
            cur[key] += int(value) if key in ('rows_out', 'bytes_out') \
                else value
    return ops


def merge_operator_stats(into, ops):
    for name, rec in ops.items():
        dst = into.setdefault(name, {k: 0 for k in rec})
        for k, v in rec.items():
            dst[k] += v
    return into


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)
