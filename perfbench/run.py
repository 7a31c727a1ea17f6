#!/usr/bin/env python3
"""primeth benchmark: run a workload of CLI commands in fresh processes, check, report.

Run from the root of a primeth checkout; the program measured is ./src/primeth:

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

Each repetition runs the workload's commands in order through
primeth.cli.main in one fresh child process, one child at a time, and checks
every output against ``oracle``.  Repetitions continue while one more round
still fits into --seconds.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics.
--workload all runs every workload; --quick shrinks each to a few seconds.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class ChildFailed(Exception):
    """A child process crashed, timed out, or imported primeth from elsewhere."""


class Runner:
    """Starts children against ``src`` with scratch files under ``tmp``."""

    def __init__(self, src, tmp):
        self.src = src
        self.tmp = tmp
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))

    def child(self, commands, trace):
        out_dir = self.tmp / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        result = self.tmp / "result.json"
        result.unlink(missing_ok=True)
        spec = self.tmp / "spec.json"
        spec.write_text(json.dumps({
            "commands": commands, "trace": trace,
            "out_dir": str(out_dir), "result": str(result),
        }))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec)], env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out after {exc.timeout} s") from exc
        if proc.returncode != 0 or not result.exists():
            raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(result.read_text())
        if Path(report["primeth"]).resolve() != (self.src / "primeth").resolve():
            raise ChildFailed(f"child imported primeth from {report['primeth']}")
        report["start"] = start
        report["out_dir"] = out_dir
        return report

    def setup_probe(self):
        report = self.child([], False)
        return report["imported"] - report["start"]

    def rep(self, commands, trace):
        """One repetition: (number of failed commands, its figures or None)."""
        cache = self.tmp / "towers.txt"
        cache.unlink(missing_ok=True)
        try:
            report = self.child([c.argv for c in commands], trace)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return len(commands), None
        failed = 0
        kinds = dict.fromkeys(spans.COMMAND_KINDS, 0.0)
        for i, (cmd, (start, end, code)) in enumerate(zip(commands, report["commands"])):
            stdout = (report["out_dir"] / f"{i}.out").read_text()
            stderr = (report["out_dir"] / f"{i}.err").read_text()
            reason = f"exit code {code}: {stderr[-500:]}" if code != 0 else cmd.check(stdout, stderr)
            if reason:
                failed += 1
                print(f"perfbench: FAILED {' '.join(cmd.argv[:3])}: {reason}", file=sys.stderr)
            kinds[cmd.kind] += end - start
        figures = {
            "setup_s": report["imported"] - report["start"],
            "wall_s": report["commands"][-1][1] - report["ready"],
            "peak_rss_mb": report["maxrss_kb"] / 1024,
            "proc.cpu_s": report["cpu_s"],
            "proc.minflt": report["minflt"],
            "spans": report.get("spans"),
        }
        figures.update({f"cmd.{k}.s": v for k, v in kinds.items()})
        return failed, figures


def run_workload(runner, name, seed, seconds, trace, quick):
    """Measure one workload; returns (attempted, failed, metrics) or raises ChildFailed."""
    commands = workloads.build(name, seed, quick, str(runner.tmp / "towers.txt"))
    runner.setup_probe()  # writes bytecode caches and warms the file cache
    setups = [] if trace else [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reps = {False: [], True: []}
    attempted = failed = 0
    begin = time.monotonic()
    longest = 0.0
    # Repeat while another round of the longest length seen so far still
    # ends within --seconds; the first round always runs.
    while True:
        round_start = time.monotonic()
        for traced in (False, True) if trace else (False,):
            bad, figures = runner.rep(commands, traced)
            attempted += len(commands)
            failed += bad
            if figures is not None:
                reps[traced].append(figures)
        if not trace:  # spread set-up samples over the whole run
            setups.append(runner.setup_probe())
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - begin + longest > seconds:
            break
    plain, traced_reps = reps[False], reps[True]
    if not plain or (trace and not traced_reps):
        raise ChildFailed(f"no repetition of {name} completed")

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    units = dict(spans.LAYER_METRICS)
    if not trace:
        values = {
            "wall_s": med(plain, "wall_s"),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": med(plain, "peak_rss_mb"),
        }
        units = dict(END_TO_END)
    else:
        layers = []
        for r in traced_reps:
            m = spans.layer_metrics(r["spans"])
            m["trace.self_frac"] = m.pop("trace.named_self_s") / r["wall_s"]
            layers.append(m)
        values = {key: med(layers, key) for key in layers[0]}
        values["trace.overhead_frac"] = med(traced_reps, "wall_s") / med(plain, "wall_s") - 1
        for key in ["proc.cpu_s", "proc.minflt"] + [f"cmd.{k}.s" for k in spans.COMMAND_KINDS]:
            values[key] = med(plain, key)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(
        f"perfbench: {name} seed={seed}: {len(plain)} untraced and {len(traced_reps)} traced "
        f"repetitions, failed_frac={failed / attempted:g} ({failed}/{attempted} commands)",
        file=sys.stderr,
    )
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, a few seconds per workload")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "primeth" / "cli.py").is_file():
        print(f"perfbench: no primeth sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(src, tmp)
        results = {}
        for name in names:
            results[name] = run_workload(runner, name, args.seed, args.seconds, bool(args.trace), args.quick)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    metrics = {}
    for name, (_, _, m) in results.items():
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    attempted = sum(a for a, _, _ in results.values())
    failed = sum(f for _, f, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
