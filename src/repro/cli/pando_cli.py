"""The ``pando`` command-line tool (Unix-pipeline interface).

Mirrors the paper's Figure 3::

    $ ./generate-angles.js | pando render.js --stdin | ./gif-encoder.js
    Serving volunteer code at http://10.10.14.119:5000

The Python port reads input values from the standard input (one JSON value or
raw string per line) or from command-line arguments, applies the processing
function exposed by a Pando module file (``exports['/pando/1.0.0']`` or a
``pando`` function) or by one of the built-in applications, and writes one
JSON result per line to the standard output.  Status messages (the volunteer
URL, worker joins) go to standard error, exactly as in the paper, so they do
not pollute the pipeline.

Workers are in-process (``--workers N`` of them) or, with ``--backend pool``,
a pool of ``N`` OS processes executing the function in parallel; a real
browser fleet is replaced by the simulation API (see ``repro.sim.scenario``)
which the ``--simulate`` flag exposes for convenience.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Iterable, Iterator, List, Optional

from ..apps import registry as app_registry
from ..core.distributed_map import DistributedMap
from ..master.bundler import Bundle, bundle_function, bundle_module
from ..pullstream import collect, from_iterable, pull
from ..sim.scenario import DeploymentScenario, ScenarioConfig

__all__ = ["main", "build_parser", "run_pipeline"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pando",
        description=(
            "Parallelize the application of a function on a stream of values "
            "(Python reproduction of the Pando volunteer-computing tool)."
        ),
    )
    parser.add_argument(
        "module",
        nargs="?",
        help="Pando module file exposing the processing function "
        "(exports['/pando/1.0.0'] or a 'pando' function)",
    )
    parser.add_argument(
        "items", nargs="*", help="input values (when --stdin is not used)"
    )
    parser.add_argument(
        "--app",
        choices=sorted(app_registry.names()),
        help="use a built-in application instead of a module file",
    )
    parser.add_argument(
        "--stdin", action="store_true", help="read input values from standard input"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="number of workers: in-process workers with --backend local, "
        "pool processes with --backend pool",
    )
    parser.add_argument(
        "--backend",
        choices=["local", "pool"],
        default="local",
        help="execution backend: 'local' runs the function synchronously on "
        "in-process workers, 'pool' dispatches it to a pool of OS processes "
        "(real parallelism for CPU-bound functions)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=2,
        dest="batch_size",
        help="values kept in flight per worker (Limiter window); with "
        "--backend pool, also the number of values coalesced per frame",
    )
    parser.add_argument(
        "--pool-transport",
        choices=["pipe", "shm"],
        default="pipe",
        dest="pool_transport",
        help="with --backend pool: how frame payloads reach the worker "
        "processes — 'pipe' pickles them through the child's pipe, 'shm' "
        "moves large bytes/array payloads through a shared-memory slot ring "
        "(control records only on the pipe; oversized payloads fall back to "
        "the pipe transparently)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of master shards (multi-master): the input is "
        "round-robin split across this many independent lenders and merged "
        "back in input order; with --backend pool, one pool is attached per "
        "shard and they pump concurrently",
    )
    parser.add_argument(
        "--unordered",
        action="store_true",
        help="release results in completion order instead of input order; "
        "with --shards > 1, shard outputs are merged in completion order "
        "(first answer wins across shards)",
    )
    parser.add_argument(
        "--split-buffer",
        type=int,
        default=None,
        dest="split_buffer",
        help="with --shards > 1: cap the splitter's per-shard input buffer "
        "at this many values, back-pressuring the faster shards when one "
        "shard stalls (default: unbounded)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="with --app and no stdin: number of generated inputs to process",
    )
    parser.add_argument(
        "--simulate",
        choices=["lan", "vpn", "wan"],
        default=None,
        help="run on the simulated deployment of the given setting instead of "
        "in-process workers",
    )
    parser.add_argument(
        "--json", action="store_true", help="parse each stdin line as JSON"
    )
    parser.add_argument(
        "--port", type=int, default=5000, help="port announced in the startup message"
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        dest="metrics_port",
        help="serve the Prometheus-style metrics endpoint on this port while "
        "the pipeline runs (0 picks a free port; the chosen URL is announced "
        "on standard error)",
    )
    parser.add_argument(
        "--stats-json",
        action="store_true",
        dest="stats_json",
        help="after the run, write the structured metrics snapshot (every "
        "registered family, JSON) to standard error",
    )
    return parser


def _pool_sizes(workers: int, pools: int) -> List[int]:
    """Split *workers* processes across *pools* pools, remainder first.

    Every pool gets at least one process (a shard cannot be served by an
    empty pool), so the total is ``max(workers, pools)`` — never silently
    less than requested.
    """
    workers = max(1, workers)
    base, remainder = divmod(workers, pools)
    return [max(1, base + (1 if index < remainder else 0)) for index in range(pools)]


def _read_stdin(as_json: bool) -> Iterator[Any]:
    for line in sys.stdin:
        line = line.rstrip("\n")
        if not line:
            continue
        yield json.loads(line) if as_json else line


def _emit(value: Any, stream) -> None:
    try:
        stream.write(json.dumps(value, default=repr) + "\n")
    except TypeError:
        stream.write(json.dumps(repr(value)) + "\n")
    stream.flush()


def run_pipeline(
    bundle: Bundle,
    inputs: Iterable[Any],
    workers: int,
    batch_size: int,
    ordered: bool = True,
    backend: str = "local",
    fn_ref: Any = None,
    shards: int = 1,
    split_buffer: Optional[int] = None,
    pool_transport: str = "pipe",
    metrics_port: Optional[int] = None,
    stats_out: Any = None,
    status_out: Any = None,
) -> List[Any]:
    """Run the distributed map and return the results.

    ``backend="local"`` attaches *workers* in-process workers applying the
    bundle's function synchronously; ``backend="pool"`` attaches one process
    pool of *workers* OS processes executing *fn_ref* (any reference accepted
    by :func:`repro.pool.tasks.resolve_callable`, defaulting to the bundle's
    function, which must then be picklable).

    With ``shards > 1`` the master is sharded: the pool backend attaches one
    pool per shard (splitting *workers* processes between them, remainder
    first, at least one each) and drives them concurrently; the local
    backend attaches at least one worker per shard so every shard is served.
    ``ordered=False`` on a sharded run merges the shard outputs in
    completion order, and *split_buffer* caps the splitter's per-shard
    buffering (see :class:`~repro.core.distributed_map.DistributedMap`).

    ``pool_transport="shm"`` moves large payloads through each pool's
    shared-memory slot ring instead of the children's pipes.

    *metrics_port* serves the map's Prometheus-style scrape endpoint on
    that port for the duration of the run (0 picks a free port); the
    endpoint URL is announced on *status_out* when given.  *stats_out* (a
    writable text stream) receives the structured metrics snapshot — every
    registered family as JSON — after the run completes.
    """
    dmap = DistributedMap(
        ordered=ordered,
        batch_size=batch_size,
        shards=shards,
        split_buffer=split_buffer,
    )
    if metrics_port is not None:
        endpoint = dmap.serve_metrics(port=metrics_port)
        if status_out is not None:
            status_out.write(f"Serving metrics at {endpoint.url}\n")
    sink = pull(from_iterable(inputs), dmap, collect())
    try:
        if backend == "pool":
            for processes in _pool_sizes(workers, max(1, shards)):
                dmap.add_process_pool(
                    fn_ref if fn_ref is not None else bundle.function,
                    processes=processes,
                    batch_size=batch_size,
                    transport=pool_transport,
                )
        else:
            for _ in range(max(1, workers, shards)):
                dmap.add_local_worker(bundle.apply)
        if backend == "pool":
            # Only pools need pumping.  A local-backend run that has not
            # completed (every worker crash-stopped) is the ordinary
            # "master waits for more volunteers" state, which sink.result()
            # below reports accurately — drive()'s pool-stall diagnostic
            # would misattribute it to pools/shards that do not exist.
            dmap.drive(sink)
        results = sink.result()
        if stats_out is not None:
            json.dump(dmap.obs.registry.as_dict(), stats_out, default=repr)
            stats_out.write("\n")
        return results
    finally:
        dmap.close()


def _run_simulated(app, setting: str, count: Optional[int], stderr) -> List[Any]:
    config = ScenarioConfig(application=app, setting=setting, duration=30.0)
    scenario = DeploymentScenario(config)
    inputs = list(app.generate_inputs(count if count is not None else 32))
    stderr.write(f"Simulating a {setting.upper()} deployment with "
                 f"{len(scenario.volunteers)} volunteer device(s)\n")
    result = scenario.run_to_completion(inputs)
    for line in result.log:
        stderr.write(line + "\n")
    return result.outputs or []


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``pando`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # ``pando lint ...`` delegates to the static analysis pass; the
        # heavy pipeline options below do not apply to it
        from ..analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "volunteer":
        # ``pando volunteer ws://host:port`` joins a live master as a real
        # websocket volunteer; it has its own option set
        from ..worker.volunteer import main as volunteer_main

        return volunteer_main(argv[1:])
    if argv and argv[0] == "simulate":
        # ``pando simulate --matrix ...`` runs the scenario-matrix cells in
        # virtual time and verifies their invariants
        from ..sim.matrix import main as matrix_main

        return matrix_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    stderr = sys.stderr

    app = None
    fn_ref: Any = None
    if args.app is not None:
        app = app_registry.create(args.app)
        bundle = bundle_function(app.process, name=args.app, application=app)
        # bound methods of the registered applications are picklable
        fn_ref = app.process
    elif args.module is not None:
        bundle = bundle_module(args.module)
        # re-bundled by dotted reference inside each worker process
        fn_ref = ("file", os.path.abspath(args.module))
    else:
        parser.error("either a module file or --app is required")
        return 2  # pragma: no cover - parser.error raises

    if args.shards < 1:
        parser.error("--shards must be >= 1")
        return 2  # pragma: no cover - parser.error raises
    if args.split_buffer is not None and args.split_buffer < 1:
        parser.error("--split-buffer must be >= 1")
        return 2  # pragma: no cover - parser.error raises
    if args.split_buffer is not None and args.shards == 1:
        parser.error("--split-buffer requires --shards > 1")
        return 2  # pragma: no cover - parser.error raises
    if args.shards > 1 and args.simulate is not None:
        parser.error("--simulate does not support --shards (simulated "
                     "deployments run a single master)")
        return 2  # pragma: no cover - parser.error raises
    if args.pool_transport != "pipe" and args.backend != "pool":
        parser.error("--pool-transport requires --backend pool (only the "
                     "process-pool backend moves payloads between processes)")
        return 2  # pragma: no cover - parser.error raises

    stderr.write(f"Serving volunteer code at http://127.0.0.1:{args.port}\n")

    if args.simulate is not None:
        if app is None:
            parser.error("--simulate requires --app (simulated devices need a cost model)")
            return 2  # pragma: no cover
        results = _run_simulated(app, args.simulate, args.count, stderr)
        for result in results:
            _emit(result, sys.stdout)
        return 0

    if args.stdin:
        inputs: Iterable[Any] = _read_stdin(args.json)
    elif args.items:
        inputs = list(args.items)
    elif app is not None:
        inputs = app.generate_inputs(args.count if args.count is not None else 16)
    else:
        inputs = []

    results = run_pipeline(
        bundle,
        inputs,
        workers=args.workers,
        batch_size=args.batch_size,
        ordered=not args.unordered,
        backend=args.backend,
        fn_ref=fn_ref,
        shards=args.shards,
        split_buffer=args.split_buffer,
        pool_transport=args.pool_transport,
        metrics_port=args.metrics_port,
        stats_out=stderr if args.stats_json else None,
        status_out=stderr,
    )
    for result in results:
        _emit(result, sys.stdout)
    stderr.write(f"Processed {len(results)} value(s)\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
