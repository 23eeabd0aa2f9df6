"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Protocol on this process's stdout, one JSON object per line:

1. ``"ready"`` as soon as ``hgcauchy.cli`` is imported; the parent's clock
   from spawn to this line is the pass's ``setup_s``;
2. then the request is read from stdin as one JSON object:
   ``{"jobs": [argv, ...], "trace": bool, "keep_output": bool,
   "flip_byte": [job index, ...]}``;
3. one line per job with its exit code, ``time.monotonic()`` at its start,
   its time, stdout digest and size;
4. a final line with ``ru_maxrss`` and, when tracing, the per-layer report.

Each job's stdout and stderr are captured in memory, so the program's output
never mixes with this protocol. Only the ``cli.main`` call is timed; hashing
and reporting happen outside the timed region.
"""

import sys
import time

import hgcauchy.cli


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> None:
    protocol = sys.stdout
    protocol.write('"ready"\n')
    protocol.flush()

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    flip = set(request.get("flip_byte", ()))

    for index, argv in enumerate(request["jobs"]):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            began = time.monotonic()
            start = time.perf_counter()
            try:
                rc = hgcauchy.cli.main(argv)
            except SystemExit as exc:
                rc = _exit_code(exc)
            except Exception:
                error = traceback.format_exc(limit=4)
            seconds = time.perf_counter() - start
        data = out.getvalue().encode()
        if index in flip and data:
            # fault injection for the self-test: corrupt one byte of stdout
            data = bytes([data[0] ^ 0x01]) + data[1:]
        result = {
            "rc": rc,
            "error": error,
            "start": began,
            "seconds": seconds,
            "digest": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "stderr": err.getvalue()[-400:],
        }
        if request.get("keep_output"):
            result["stdout"] = data.decode(errors="replace")
        if tracer is not None:
            tracer.observe_output(data)
        protocol.write(json.dumps(result) + "\n")
        protocol.flush()

    final = {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.report()
    protocol.write(json.dumps(final) + "\n")
    protocol.flush()


if __name__ == "__main__":
    main()
