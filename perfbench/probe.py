"""Run one affine-singular CLI command with the layer tracer installed.

    python perfbench/probe.py TRACE_OUT CLI_ARG...

Behaves like ``python -m affine_singular.cli CLI_ARG...`` (same stdout and
exit code) and also writes the command's layer self times and counters to
TRACE_OUT as JSON.  Used by the traced runs of the ``cli`` workload.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import affine_singular.cli as cli
    import_s = time.perf_counter() - start
    modules = sum(1 for name in sys.modules if name.split(".")[0] == "affine_singular")

    import tracer as tracing

    trace = tracing.Tracer()
    with tracing.installed(trace):
        code = cli.main(argv)
    record = trace.snapshot()
    record["self_s"]["cli.import_s"] = import_s
    record["counts"]["cli.modules"] = modules
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
