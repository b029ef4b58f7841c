"""The program process of the CLI workloads.

Imports ``repro.cli`` once (the start-up the benchmark reports as
``setup_s``), prints ``{"ready": true}``, then reads one JSON request
per stdin line and answers one JSON line per request:

    -> {"argv": ["allocate", "file.txt"]}
    <- {"status": 0, "stdout": "...", "elapsed_s": 0.41, "cpu_s": 0.40,
        "maxrss_kb": 51234}
    -> {"exit": true}

``elapsed_s`` is the wall time of ``repro.cli.main(argv)`` alone and
``cpu_s`` the process CPU time it used; the command's standard output
is captured and returned, not printed.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    from repro import cli

    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            break
        captured = io.StringIO()
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                status = cli.main(request["argv"])
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        reply.write(
            json.dumps(
                {
                    "status": status,
                    "stdout": captured.getvalue(),
                    "elapsed_s": elapsed,
                    "cpu_s": cpu,
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                }
            )
            + "\n"
        )
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
