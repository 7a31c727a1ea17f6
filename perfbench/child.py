"""One fresh benchmark process: import primeth, run CLI commands in order, report.

Usage: python3 child.py SPEC.json

SPEC holds ``commands`` (argv lists for primeth.cli.main), ``out_dir`` (one
stdout/stderr file pair per command), ``trace`` and ``result`` (where the
JSON report goes).  With no commands the process only measures its import.
Times are time.monotonic() stamps, comparable with the parent's clock.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _run(main, argv, out_path, err_path):
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.monotonic()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # reported as a failed command, not a crashed run
                traceback.print_exc()
                code = -1
    return [start, time.monotonic(), 0 if code is None else code]


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import primeth.cli

    imported = time.monotonic()
    report = {"imported": imported, "primeth": os.path.dirname(primeth.__file__)}
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    report["ready"] = time.monotonic()
    report["commands"] = [
        _run(
            lambda argv: primeth.cli.main(argv),  # looked up per call: may be traced
            argv,
            os.path.join(spec["out_dir"], f"{i}.out"),
            os.path.join(spec["out_dir"], f"{i}.err"),
        )
        for i, argv in enumerate(spec["commands"])
    ]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["maxrss_kb"] = usage.ru_maxrss
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["minflt"] = usage.ru_minflt
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
