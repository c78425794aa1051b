"""Benchmark of the conmot command line tool and exact engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each operation of a workload pass runs in a fresh interpreter, one child at
a time, as a user's shell session would run them. After one discarded
warm-up pass (it also writes the .pyc files) and the set-up samples, passes
repeat until S seconds have been measured.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, whose untraced passes give ``trace.overhead_s``. Every output is
checked; a failed check, a non-zero exit or a traceback counts as a failed
operation. Details (samples, percentiles, SHA-256 of every output file,
machine facts) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD = HERE / "child.py"

# What the ``conmot`` console script runs.
CLI_CODE = "import sys; from conmot.cli import main; sys.exit(main())"
# What every command pays before its work: import, then read the config.
SETUP_CODE = "import sys, conmot; conmot.load_config(sys.argv[1])"
SETUP_REPEATS = 7
HARD_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    returncode: int
    maxrss_kb: int
    stderr: str


@dataclass
class PassResult:
    wall_s: float
    operation_wall_s: list[float]
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: list[str]
    hashes: dict[str, str]
    output_bytes: int
    layers: layers.PassLayers | None = None
    traces: list[Path] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: children run one at a time on a small shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, work: Path, started: float) -> None:
        self.work = work
        self.started = started
        self.env = child_env()
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    def child(self, argv: list[str]) -> ChildResult:
        """Run one child to completion; wall time and rusage of that child alone."""
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            raise TimeoutError(f"the run took longer than {HARD_LIMIT_S:.0f} s")
        err_path = self.logs / "stderr"
        with open(self.logs / "stdout", "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                           usage.ru_maxrss, err_path.read_text(errors="replace"))

    def run_pass(self, workload: workloads.Workload, tag: str, traced: bool) -> PassResult:
        pass_dir = self.work / tag
        trace_dir = self.work / f"{tag}-trace"
        if traced:
            trace_dir.mkdir(parents=True)
        results, traces = [], []
        t0 = time.perf_counter()
        for op in workload.operations:
            args = [a.replace("{out}", str(pass_dir / op.name)) for a in op.args]
            if traced:
                traces.append(trace_dir / f"{op.name}.json")
                argv = [str(CHILD), "--trace", str(traces[-1]), op.mode, *args]
            elif op.mode == "cli":
                argv = ["-c", CLI_CODE, *args]
            else:
                argv = [str(CHILD), op.mode, *args]
            results.append(self.child(argv))
        wall = time.perf_counter() - t0

        problems, failed = [], 0
        for op, res in zip(workload.operations, results):
            found = _operation_problems(op, res, pass_dir)
            failed += bool(found)
            problems += [f"{tag}/{op.name}: {p}" for p in found]
        hashes, size = {}, 0
        for path in sorted(p for p in pass_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            hashes[path.relative_to(pass_dir).as_posix()] = hashlib.sha256(data).hexdigest()
            size += len(data)
        shutil.rmtree(pass_dir, ignore_errors=True)
        result = PassResult(wall, [r.wall_s for r in results], sum(r.cpu_s for r in results),
                            max(r.maxrss_kb for r in results) / 1024.0,
                            len(results), failed, problems, hashes, size, traces=traces)
        if traced:
            result.layers = layers.PassLayers()
            for path in traces:
                if path.is_file():
                    result.layers.add(tracer.load(path))
        return result


def _operation_problems(op: workloads.Operation, res: ChildResult, pass_dir: Path) -> list[str]:
    problems = []
    if res.returncode != 0:
        problems.append(f"exit code {res.returncode}")
    if "Traceback (most recent call last)" in res.stderr:
        problems.append("printed a traceback: " + res.stderr.strip().splitlines()[-1])
    if problems:
        return problems
    try:
        return op.check(pass_dir / op.name)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"output check could not read the output: {exc!r}"]


def machine_facts() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _spread(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": len(samples), "values": samples}


def measure(args, name: str, work: Path, started: float) -> dict:
    runner = Runner(work, started)
    workload = workloads.generate(name, args.seed, work / "inputs")
    problems: list[str] = []
    attempted = failed = 0

    warm = runner.run_pass(workload, "warmup", traced=False)
    attempted, failed = warm.attempted, warm.failed
    problems += warm.problems

    setup = []
    for _ in range(SETUP_REPEATS):
        res = runner.child(["-c", SETUP_CODE, str(workload.setup_config)])
        attempted += 1
        if res.returncode != 0:
            failed += 1
            problems.append(f"setup: exit code {res.returncode}: {res.stderr.strip()[-200:]}")
        setup.append(res.wall_s)

    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        if args.trace:
            # Alternate so that drift hits both sides alike.
            traced_next = len(traced) < len(plain)
            (traced if traced_next else plain).append(
                runner.run_pass(workload, f"pass{len(plain) + len(traced)}", traced_next))
        else:
            plain.append(runner.run_pass(workload, f"pass{len(plain)}", False))
        elapsed = time.perf_counter() - t0
        enough = plain and (traced or not args.trace)
        if enough and elapsed >= args.seconds:
            break
    for p in plain + traced:
        attempted += p.attempted
        failed += p.failed
        problems += p.problems

    walls = [p.wall_s for p in plain]
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "operation_wall_s": {
            op.name: _spread([p.operation_wall_s[i] for p in plain])
            for i, op in enumerate(workload.operations)
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "wall_s": _spread(walls),
        "setup_s": _spread(setup),
        "peak_rss_mb": _spread([p.peak_rss_mb for p in plain]),
        "children_cpu_s": _spread([p.cpu_s for p in plain]),
        "output_sha256": plain[0].hashes,
        "outputs_identical_across_passes": all(p.hashes == plain[0].hashes for p in plain + traced),
    }
    if args.trace:
        overhead = statistics.median(p.wall_s for p in traced) - statistics.median(walls)
        per_pass = [p.layers.metrics(p.output_bytes, overhead) for p in traced]
        names = [m for m, _ in layers.PER_LAYER]
        report["per_layer"] = {m: statistics.median(v[m] for v, _ in per_pass) for m in names}
        report["per_call"] = per_pass[-1][1]
        report["traced_wall_s"] = _spread([p.wall_s for p in traced])
        report["counts_repeat"] = all(
            all(v[m] == per_pass[0][0][m] for m, u in layers.PER_LAYER if u in layers.EXACT_UNITS)
            for v, _ in per_pass
        )
        keep = STATE / "results" / f"{name}-seed{args.seed}-spans"
        shutil.rmtree(keep, ignore_errors=True)
        keep.mkdir(parents=True)
        for path in traced[-1].traces:
            for part in (path, path.with_suffix(".spans")):
                if part.is_file():
                    shutil.copy2(part, keep / part.name)
        report["spans_dir"] = str(keep.relative_to(ROOT))
    return report


def run_workload(args, name: str) -> tuple[dict, dict, dict]:
    """Measure one workload; print its block; return (report, units, values)."""
    started = time.perf_counter()
    work = STATE / "work" / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(args, name, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["run_s"] = time.perf_counter() - started

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    if args.trace:
        units, values = dict(layers.PER_LAYER), report["per_layer"]
    else:
        units = dict(END_TO_END)
        values = {m: report[m]["median"] for m in units}
    for problem in report["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"{name} seed {args.seed}: {report['attempted']} operations, "
          f"{report['failed']} failed (error_rate {report['error_rate']:.4g}); "
          f"{report['wall_s']['samples']} timed passes; details in {out.relative_to(ROOT)}")
    for metric, unit in units.items():
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    return report, units, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conmot" / "__init__.py").is_file():
        print(f"error: no conmot sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            report, units, values = run_workload(args, name)
        except TimeoutError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        correct = correct and report["failed"] == 0
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": values[m], "unit": u} for m, u in units.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
