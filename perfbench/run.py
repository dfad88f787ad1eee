"""Benchmark of ``nctorus``: one command, one workload per run.

    python3 perfbench/run.py --workload g1 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every round of a workload runs in a
fresh interpreter (``round.py``), as a user's ``nct run`` or ``nct star``
does, with the checkout's ``src`` on ``PYTHONPATH`` and ``NCT_WINDOW``
removed from the environment.  Untraced runs repeat whole rounds until
``--seconds`` have passed and report medians; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import metric_specs

WORKLOADS = ("g1", "e1xe2", "star-oracle")
SETUP_SAMPLES = 3  # set-up is timed at least this often per run
DEADLINE_S = 170  # a run starts no child that could end after this
END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("cases_checked", "count"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        here = Path(__file__).resolve().parent
        self.here = here
        self.root = here.parent
        self.src = self.root / "src"
        if not (self.src / "nctorus" / "cli.py").is_file():
            raise BenchError(f"no nctorus sources under {self.src}")
        self.out_dir = here / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.workload = workload
        self.seed = seed
        if workload == "star-oracle":
            self.input = self.out_dir / f"star-oracle-seed{seed}.json"
            self.input.write_text(json.dumps(checks.draw_operands(seed), indent=1))
        else:
            self.input = self.src / "nctorus" / "fixtures" / f"{workload}.json"
        self.env = dict(os.environ)
        self.env.pop("NCT_WINDOW", None)
        self.env["PYTHONPATH"] = str(self.src)
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _python(self, cmd: list, what: str) -> dict:
        """Run a fresh interpreter and return its last stdout line as JSON."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError(f"out of time before the {what}")
        try:
            proc = subprocess.run(
                [sys.executable] + cmd,
                env=self.env,
                cwd=self.root,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish within {timeout:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def child(self, mode: str, trace_out: Path = None) -> dict:
        cmd = [
            str(self.here / "round.py"),
            "--workload",
            self.workload,
            "--input",
            str(self.input),
            "--mode",
            mode,
        ]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        data = self._python(cmd, f"{mode} round")
        if not Path(data["module"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"measured {data['module']}, not the checkout's nctorus")
        return data


def timed_run(runner: Runner, seconds: int):
    rounds = []
    while True:
        t0 = runner.elapsed()
        rounds.append(runner.child("full"))
        took = runner.elapsed() - t0
        if runner.elapsed() >= seconds or runner.elapsed() + took > DEADLINE_S - 20:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(r["verify_s"] for r in rounds),
        "cases_checked": statistics.median(r["cases"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(
        f"{runner.workload}: verify_s of {len(rounds)} round(s): "
        + ", ".join(f"{r['verify_s']:.4f}" for r in rounds)
        + "; setup_s: "
        + ", ".join(f"{v:.4f}" for v in setups)
    )
    return rounds, metrics


def traced_run(runner: Runner):
    base = runner.child("full")
    trace_out = runner.out_dir / f"trace-{runner.workload}-seed{runner.seed}.json"
    traced = runner.child("full", trace_out)
    values = dict(traced["trace"])
    values["trace.verify_s"] = traced["verify_s"]
    values["trace.untraced_verify_s"] = base["verify_s"]
    values["trace.overhead_s"] = traced["verify_s"] - base["verify_s"]
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _better in metric_specs()
    }
    print(f"{runner.workload}: spans and metrics written to {trace_out}")
    return [base, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        runner = Runner(args.workload, args.seed)
        if args.trace:
            rounds, metrics = traced_run(runner)
        else:
            rounds, metrics = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op[1]]
    for name, _ok, detail in failed:
        print(f"FAILED {name}: {detail}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {len(ops)}, failed {len(failed)}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
