"""Make one oscal-assure CLI invocation in a fresh interpreter, in process,
and print one JSON line describing it. The benchmark's traced pass uses it.

    python bench/worker.py traced|plain TRACE_ID CLI-ARG...

`traced` installs the span wrappers around `cli.main(argv)`; `plain` runs
the same call bare, so the two give the tracing overhead. The time of
`import oscal_assure.cli` is taken first, before anything else is
imported, and is reported as import_ns.
"""

import sys
import time


def main() -> int:
    mode, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter_ns()
    import oscal_assure.cli as cli

    import_ns = time.perf_counter_ns() - start

    import contextlib
    import io
    import json

    import spans

    recorder = spans.SpanRecorder(trace_id)
    captured = io.StringIO()
    with contextlib.ExitStack() as stack:
        entry = cli.main
        if mode == "traced":
            stack.enter_context(spans.instrument(recorder))
            entry = recorder.wrap(cli.main, "cli.main")
        stack.enter_context(contextlib.redirect_stdout(captured))
        start = time.perf_counter_ns()
        exit_code = entry(argv)
        main_ns = time.perf_counter_ns() - start
    print(json.dumps({
        "exit_code": exit_code,
        "import_ns": import_ns,
        "main_ns": main_ns,
        "stdout": captured.getvalue(),
        "spans": recorder.as_dicts(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
