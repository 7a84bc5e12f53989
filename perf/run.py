"""Run the perf suite.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload tiny_ordered --seed 1 --seconds 20 --trace 0

prints every metric with its unit and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` the whole suite runs — every workload
untraced then traced, each in its own fresh process so ``ru_maxrss`` is per
workload — and the combined result is written to ``perf/out/result.json``
for ``perf/compare.py``.

Everything below stays under the ``__main__`` guard: volunteer processes use
the spawn start method and re-import this module.
"""

if __name__ == "__main__":
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(1, os.path.join(root, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"perf/run.py: the program under test is missing: {exc}\n")
        sys.exit(2)

    import suite

    sys.exit(suite.main(sys.argv[1:]))
