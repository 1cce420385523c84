"""Run one kg5d CLI command in this process and record its timeline.

Usage: python3 child.py RECORD_JSON TRACE(0|1) SPANS_FILE -- CLI_ARGS...

The record holds the time ``import kg5d.cli`` took, the monotonic clock at
the entry of ``kg5d.cli.main`` (the parent subtracts its own spawn time, which
is on the same system-wide clock), the exit status and, when traced, the
per-layer totals.  The process exits with the status ``kg5d.cli.main``
returned.
"""

import json
import os
import sys
import time


def main() -> int:
    record_path, trace, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    before_import = time.perf_counter()
    import kg5d.cli
    imported = time.perf_counter()
    record = {"import_s": imported - before_import,
              "module": os.path.abspath(kg5d.cli.__file__)}
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install(os.path.dirname(record["module"]))
    record["main_entry"] = time.perf_counter()
    status = 1  # kept if main raises: the traceback follows the record
    try:
        status = kg5d.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad flags this way
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        record["status"] = status
        if tracer is not None:
            record["layers"] = tracer.summary()
            tracer.write_spans(spans_path)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
