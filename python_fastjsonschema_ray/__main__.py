"""CLI entry point (reference analog: ``python -m fastjsonschema``,
``fastjsonschema/__main__.py:7-19``, which emits generated code; here
``compile`` checks the schema and prints a plan summary instead — the
generated module comes from ``compile_to_code()``).

Subcommands:
  compile   <schema.json>                  → plan summary + plan hash (stdout)
  validate  --schema S --data D            → validate one JSON document
  run       --schema S --input GLOB --out DIR [--key COL]
                                           → resumable distributed validation
  profile   --input GLOB [--columns ...]   → infer a draft JSON-Schema spec
                                             from the data (profile → enforce)
  gen-images --rows N --out DIR            → synthesize the image+caption table

``run`` owns its Ray session (ray.init local) — suitable for
``ray job submit -- python -m python_fastjsonschema_ray run ...``.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _load_schema(path):
    # '-' reads the schema from stdin, like the reference CLI
    # (fastjsonschema/__main__.py:7-19 pipes the definition through stdin).
    if path == '-':
        return json.load(sys.stdin)
    with open(path) as f:
        return json.load(f)


def cmd_compile(args):
    from .functions.codegen import compile_validator
    from .functions.scalar import ScalarCompiler
    from .pipelines.manifest import plan_hash
    definition = _load_schema(args.schema)
    compiler = ScalarCompiler(definition)
    compile_validator(compiler)  # raises JsonSchemaDefinitionException on bad spec
    print(json.dumps({
        'plan_hash': plan_hash(definition),
        'draft': compiler.draft,
        'keywords': sorted(
            k for k in (definition if isinstance(definition, dict) else {})),
        'status': 'ok',
    }, indent=1))


def cmd_validate(args):
    from . import compile as engine_compile
    definition = _load_schema(args.schema)
    with open(args.data) as f:
        data = json.load(f)
    validator = engine_compile(definition)
    try:
        out = validator(data)
        print(json.dumps({'valid': True, 'data': out}, default=str))
    except Exception as exc:
        print(json.dumps({'valid': False, 'error': str(exc)}))
        sys.exit(1)


def _ray_init():
    import ray
    if not ray.is_initialized():
        ray.init(address='local', include_dashboard=False,
                 ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def cmd_run(args):
    import ray
    _ray_init()
    from .pipelines.manifest import run_validation_job
    definition = _load_schema(args.schema)
    files = sorted(glob.glob(args.input))
    if not files:
        print('no input files match {}'.format(args.input), file=sys.stderr)
        sys.exit(2)
    summary = run_validation_job(files, definition, args.out,
                                 key_column=args.key)
    print(json.dumps(summary, indent=1))
    ray.shutdown()


def cmd_profile(args):
    import ray
    _ray_init()
    import ray.data

    from .pipelines.infer import infer_table_spec
    from .sources.reader import read_table
    files = sorted(glob.glob(args.input))
    if not files:
        print('no input files match {}'.format(args.input), file=sys.stderr)
        sys.exit(2)
    ds = read_table(files)
    spec = infer_table_spec(ds, columns=args.columns)
    print(json.dumps(spec, indent=1, sort_keys=True))
    ray.shutdown()


def cmd_gen_images(args):
    import ray
    _ray_init()
    from .sources.images import write_image_table
    write_image_table(args.out, args.rows, seed=args.seed,
                      violation_rate=args.violation_rate)
    print(json.dumps({'out': args.out, 'rows': args.rows}))
    ray.shutdown()


def main(argv=None):
    parser = argparse.ArgumentParser(prog='python_fastjsonschema_ray')
    sub = parser.add_subparsers(dest='cmd', required=True)

    p = sub.add_parser('compile')
    p.add_argument('schema')
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser('validate')
    p.add_argument('--schema', required=True)
    p.add_argument('--data', required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser('run')
    p.add_argument('--schema', required=True)
    p.add_argument('--input', required=True, help='glob of parquet shards')
    p.add_argument('--out', required=True)
    p.add_argument('--key', default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser('profile')
    p.add_argument('--input', required=True, help='glob of parquet shards')
    p.add_argument('--columns', nargs='*', default=None)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser('gen-images')
    p.add_argument('--rows', type=int, default=10000)
    p.add_argument('--out', required=True)
    p.add_argument('--seed', type=int, default=42)
    p.add_argument('--violation-rate', type=float, default=0.01)
    p.set_defaults(fn=cmd_gen_images)

    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == '__main__':
    main()
