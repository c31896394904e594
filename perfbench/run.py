"""End-to-end benchmark of the treebench CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the seeded
inputs of one workload under ``.bench_work/``, then acts as one closed-loop
client: it runs a fresh ``treebench <command>`` process, waits for it to
exit, checks its artifacts and starts the next while that one is expected to
end within S seconds.
The program sees only the generated files.

With ``--trace 0`` it reports the end-to-end metrics: the median wall time
and peak RSS of one CLI process, and the median set-up time of a fresh
interpreter (import, config, input table).  With ``--trace 1`` it alternates
untraced and traced processes and reports per-layer metrics from the traced
ones (see spans.py).  The last line of standard output is the JSON result.

Every run is checked: it must exit 0 in time, pass the workload's artifact
checks, give the same artifact digests as the other runs of this invocation
and, at the default seed, the digests recorded in reference.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better, bound): what a user of the CLI sees.  The time bounds
# are wide because on the shared 2-vCPU machine they were set on, the same
# process drifted by up to 20% within minutes; peak RSS repeats to 0.5%.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# One BLAS thread: the CLI's matrices are small (the mlp is 16 wide), and on
# a shared 2-vCPU machine extra threads add noise, not speed.  It is the same
# for every commit compared and is printed with the environment.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120.0
# Launch nothing after this and kill what runs, so the whole run ends
# within 180 s.
DEADLINE_S = 170.0

CLI_MAIN = "import sys; from treebench.cli import main; sys.exit(main())"


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in spans.TIMED}
    units.update({name: "count" for name in spans.CALLS})
    units.update({name: "count" for name in spans.COUNTED})
    units.update({name: "s" for name in spans.SELF.values()})
    units.update({"cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.command = workloads.COMMANDS[workload]
        self.config = work / "in" / "config.json"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        self.reference: dict | None = None
        self.input_problem = ""
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def left_s(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], name: str) -> Sample:
        """Run one child to exit; peak RSS comes from wait4 on that child
        alone, so no earlier, larger child leaks into it."""
        timeout = min(CHILD_TIMEOUT_S, self.left_s())
        self.attempted += 1
        with open(self.work / f"{name}.out", "w") as out, \
                open(self.work / f"{name}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(timeout, 0.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted or terminated: leave no child behind.
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if killed.is_set():
            sample.problems.append(f"timed out after {timeout:.0f} s")
        elif proc.returncode != 0:
            tail = (self.work / f"{name}.err").read_text().strip().splitlines()[-1:]
            sample.problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        return sample

    def check_source(self, sample: Sample, name: str) -> None:
        lines = (self.work / f"{name}.out").read_text().splitlines()
        expected = self.root / "src" / "treebench" / "__init__.py"
        if not lines or Path(lines[-1]).resolve() != expected.resolve():
            sample.problems.append("treebench was not imported from this checkout")

    def check_artifacts(self, sample: Sample, out: Path, facts: dict) -> None:
        if sample.problems:
            return
        sample.problems += workloads.check_artifacts(self.workload, out, facts)
        digests = workloads.artifact_digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            sample.problems.append("artifacts differ from the first run's")
        if self.reference is not None and digests != self.reference["artifacts"]:
            sample.problems.append("artifacts differ from reference.json")

    def finish(self, sample: Sample, label: str) -> Sample:
        if self.input_problem:
            sample.problems.append(self.input_problem)
        if sample.problems:
            self.failed += 1
        status = "; ".join(sample.problems) or "ok"
        print(f"{label}: wall {sample.wall_s:.4f} s, cpu {sample.cpu_s:.4f} s, peak rss "
              f"{sample.peak_rss_mb:.1f} MB, {status}", flush=True)
        return sample

    def setup_run(self, i: int) -> Sample:
        name = f"setup{i}"
        sample = self.spawn([sys.executable, str(HERE / "child.py"), "setup",
                             self.command, str(self.config)], name)
        if not sample.problems:
            self.check_source(sample, name)
        return self.finish(sample, name)

    def cli_run(self, i: int, facts: dict, summary: Path | None = None) -> Sample:
        name = f"{'traced' if summary else 'run'}{i}"
        out = self.work / name
        args = [self.command, "--config", str(self.config), "--out", str(out)]
        if summary is None:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(summary),
                    "--", *args]
        sample = self.spawn(argv, name)
        if summary is not None and not sample.problems:
            self.check_source(sample, name)
        self.check_artifacts(sample, out, facts)
        shutil.rmtree(out, ignore_errors=True)
        return self.finish(sample, name)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "client": "closed loop, 1 client, 1 command in flight",
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, float]:
    facts = workloads.write_inputs(bench.workload, bench.seed, bench.work / "in")
    shown = {k: v for k, v in facts.items() if k != "expected"}
    print(f"inputs: {json.dumps(shown, sort_keys=True)}", flush=True)
    reference_file = HERE / "reference.json"
    if bench.seed == DEFAULT_SEED and reference_file.is_file():
        recorded = json.loads(reference_file.read_text())["workloads"]
        bench.reference = recorded.get(bench.workload)
    if bench.reference and facts["input_sha256"] != bench.reference["inputs"]["input_sha256"]:
        bench.input_problem = "inputs differ from reference.json"

    setups = [] if trace else [bench.setup_run(i) for i in range(SETUP_REPEATS)]
    runs: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    # Start another round only while it is expected to end within the
    # measuring time, so a run lasts about ``seconds`` on any machine.
    loop_start = time.perf_counter()
    while bench.left_s() > 0:
        round_start = time.perf_counter()
        runs.append(bench.cli_run(len(runs), facts))
        if trace and bench.left_s() > 0:
            summary = bench.work / f"summary{len(traced)}.json"
            sample = bench.cli_run(len(traced), facts, summary)
            if not sample.problems:
                traced.append((sample, json.loads(summary.read_text())))
        now = time.perf_counter()
        if now - loop_start + (now - round_start) > seconds:
            break

    if not trace:
        print(f"medians over {len(runs)} runs and {len(setups)} set-ups", flush=True)
        return {
            "wall_s": median(s.wall_s for s in runs),
            "setup_s": median(s.wall_s for s in setups),
            "peak_rss_mb": median(s.peak_rss_mb for s in runs),
        }
    print(f"medians over {len(traced)} traced and {len(runs)} untraced runs", flush=True)
    for sample, summary in traced:
        metrics = summary["metrics"]
        for note in summary["skipped"]:
            print(f"trace skipped {note}", flush=True)
        metrics["cli.self_s"] = sample.wall_s - sum(metrics[m] for m in spans.SELF.values())
        metrics["trace.wall_s"] = sample.wall_s
    result = {}
    for name, unit in per_layer_units().items():
        values = [summary["metrics"][name] for _, summary in traced
                  if name in summary["metrics"]] or [0]
        # Counts repeat exactly between runs; the low median keeps them whole.
        result[name] = (statistics.median_low(values) if unit == "count"
                        else statistics.median(values))
    result["trace.overhead_s"] = result["trace.wall_s"] - median(s.wall_s for s in runs)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Termination unwinds like an interrupt, so children are stopped and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = HERE.parent
    if not (root / "src" / "treebench" / "cli.py").is_file():
        print(f"no treebench sources under {root / 'src'}", file=sys.stderr)
        return 2
    print(f"env: {json.dumps(environment(), sort_keys=True)}", flush=True)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, work, args.workload, args.seed)
    try:
        values = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    units = per_layer_units() if args.trace else {m[0]: m[1] for m in END_TO_END}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
