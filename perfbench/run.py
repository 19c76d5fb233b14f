"""Benchmark runner for toda-spectrum (stdlib only).

    python3 perfbench/run.py --workload exact_midrank --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each pass spawns a fresh worker process
(``perfbench/worker.py``, with ``src`` on ``PYTHONPATH``), waits until it has
imported the package, then acts as one closed-loop client: it sends the
seeded request sequence one request at a time and waits for each answer.
Passes repeat until ``--seconds`` is used up (and at least ``MIN_REQUESTS``
requests were timed); every answer is checked by ``oracle.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate and the last line carries
the per-layer metrics of the traced passes (median over passes of the per-pass
sums) plus the tracing overhead. The line before it is a JSON report with the
environment, sample counts, failures and, when traced, self time per layer and
per algebra. See ``perfbench/NOTES.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import oracle
import workloads
from tracer import CLI_COMMAND, MATMUL, TARGETS, self_times

MIN_REQUESTS = 100  # so that at least ten timed requests lie beyond p90
SETUP_SAMPLES = 7  # set-ups per run; setup_s is their median
STARTUP_PROBES = 7
IMPORT_PROBES = 5
RUN_DEADLINE_S = 170  # hard stop for one invocation, kept under the 180 s limit
PROBE_TIMEOUT_S = 30

WORKER = os.path.join("perfbench", "worker.py")


class RunTimeout(Exception):
    pass


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    answers: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)


class Runner:
    """Spawns the workers of one workload and seed, and plays their one client."""

    def __init__(self, workload: str, seed: int, root: str) -> None:
        self.requests = workloads.generate(workload, seed)
        self.cli = workload == "cli_cold"
        self.prepare = [
            r["argv"] for r in self.requests if self.cli and r["argv"][0] == "spectrum"
        ]
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.root = root
        self.proc: subprocess.Popen | None = None

    def _spawn(self, traced: bool) -> tuple[subprocess.Popen, dict, float]:
        config = {"trace": traced, "cli": self.cli, "prepare": self.prepare}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            cwd=self.root, env=self.env, start_new_session=True,
        )
        ready = self._read()
        return self.proc, ready, time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited early with code {self.proc.wait()}")
        return json.loads(line)

    def _finish(self) -> dict:
        self.proc.stdin.close()
        final = self._read()
        self.proc.stdout.close()
        self.proc.wait()
        self.proc = None
        return final

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    def setup_only(self) -> float:
        _, _, setup = self._spawn(traced=False)
        self._finish()
        return setup

    def run_pass(self, traced: bool) -> Pass:
        proc, ready, setup = self._spawn(traced)
        result = Pass(traced=traced, setup_s=setup, refs=ready["refs"])
        start = time.perf_counter()
        for req in self.requests:
            t0 = time.perf_counter()
            proc.stdin.write(json.dumps(req) + "\n")
            answer = self._read()
            result.latencies.append(time.perf_counter() - t0)
            result.answers.append(answer)
        result.wall_s = time.perf_counter() - start
        result.final = self._finish()
        return result

    def check(self, p: Pass, reference: Pass) -> list[str]:
        """One reason per failed request of the pass.

        In-process answers must also equal those of the ``reference`` pass,
        which is untraced: tracing must not change any answer.
        """
        failures = []
        for req, ans, ref in zip(self.requests, p.answers, reference.answers):
            if "error" in ans:
                reason = ans["error"]
            elif req["kind"] != "cli" and ans != ref:
                reason = "answer differs from the first untraced pass"
            elif req["kind"] != "cli":
                reason = oracle.check_answer(req["kind"], req["algebra"], ans["answer"])
            elif p.traced:  # stdout is discarded in traced CLI runs
                reason = None if ans["answer"]["rc"] == 0 else f"exit code {ans['answer']['rc']}"
            else:
                a = ans["answer"]
                reason = oracle.check_cli(req["argv"], a["rc"], a["stdout"],
                                          p.refs.get(" ".join(req["argv"])))
                if reason and a["stderr"]:
                    reason += f" (stderr: {a['stderr'].strip()[-200:]})"
            if reason:
                failures.append(f"{workloads.subject(req)} {req.get('kind')}: {reason}")
        return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _timed_run(cmd: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t0, proc.stderr


def startup_floor_ms(env: dict) -> float:
    """Median time to start and stop a bare interpreter (`python -c pass`)."""
    return 1e3 * statistics.median(
        _timed_run([sys.executable, "-c", "pass"], env)[0] for _ in range(STARTUP_PROBES)
    )


def import_times_ms(env: dict) -> tuple[float, float]:
    """Medians of the cumulative `-X importtime` of toda_spectrum.cli and of click."""
    cli_ms, click_ms = [], []
    for _ in range(IMPORT_PROBES):
        _, err = _timed_run([sys.executable, "-X", "importtime", "-c", "import toda_spectrum.cli"], env)
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        cli_ms.append(cumulative.get("toda_spectrum.cli", 0.0))
        click_ms.append(cumulative.get("click", 0.0))
    return statistics.median(cli_ms), statistics.median(click_ms)


def environment(env: dict, startup_ms: float) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python.startup_ms": startup_ms,
        "notes": "shared host; no CPU pinning, frequency control or cache drops are possible, "
                 "so read cli_cold latencies against python.startup_ms",
    }


def layer_metrics(runner: Runner, p: Pass) -> tuple[dict, dict, dict]:
    """Per-layer sums for one traced pass, plus self time by layer and by algebra."""
    subjects = {r["id"]: workloads.subject(r) for r in runner.requests}
    if runner.cli:  # one export per traced child process, tagged with its request
        exports = [(a["answer"], a["id"]) for a in p.answers if "spans" in a.get("answer", {})]
    else:  # one export for the worker, whose spans carry their request ids
        exports = [(p.final, None)]
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    by_algebra: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    charpoly_total_ms = 0.0
    for export, request in exports:
        spans = export["spans"]
        for (name, start, end, _, req), own in zip(spans, self_times(spans)):
            if name == "exact_poly.char_poly_exact":
                charpoly_total_ms += 1e3 * (end - start)
            layer = name.split(".")[0]
            calls[name] += 1
            self_ms[name] += 1e3 * own
            by_layer[layer] += 1e3 * own
            by_algebra[subjects[req if request is None else request]][layer] += 1e3 * own

    m = {}
    for name in [f"{m}.{f}" for m, f in TARGETS] + [MATMUL, CLI_COMMAND]:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = self_ms[name]
    rs_calls = m["root_systems.root_system.calls"]
    m["root_systems.cache_hit_ratio"] = (
        1.0 - m["root_systems.generate_roots.calls"] / rs_calls if rs_calls else 0.0
    )
    m["exact_poly.char_poly_exact.total_ms"] = charpoly_total_ms
    m["exact_poly.char_poly_exact.max_coeff_bits"] = max(
        (e["charpoly_max_bits"] for e, _ in exports), default=0)
    m["spectral.jacobi_eigen.max_residual"] = max(
        (e["jacobi_max_residual"] for e, _ in exports), default=0.0)
    return m, dict(by_layer), {s: dict(cells) for s, cells in by_algebra.items()}


def _median_dicts(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0) for d in dicts) for k in sorted(keys)}


def measure(runner: Runner, seconds: float, traced_run: bool) -> tuple[list[Pass], int]:
    """Run passes (alternating untraced/traced when tracing) until time is used up."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(runner.run_pass(traced=False))
        if traced_run:
            passes.append(runner.run_pass(traced=True))
        round_s = time.perf_counter() - round_start
        timed = sum(len(p.latencies) for p in passes if not p.traced)
        if time.perf_counter() - start + round_s > seconds and (traced_run or timed >= MIN_REQUESTS):
            return passes, timed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toda_spectrum", "__init__.py")):
        print("run.py: no src/toda_spectrum here; run from the root of a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, root)

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        passes, timed = measure(runner, args.seconds, bool(args.trace))
        setups = [p.setup_s for p in passes if not p.traced]
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.setup_only())
        startup_ms = startup_floor_ms(runner.env)
        import_ms = import_times_ms(runner.env) if args.trace else None
    except (RunTimeout, RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        runner.kill()
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [f for p in passes for f in runner.check(p, untraced[0])]
    attempted = sum(len(p.answers) for p in passes)
    walls = [p.wall_s for p in untraced]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "requests_per_pass": len(runner.requests),
        "pass_wall_s": [p.wall_s for p in passes],
        "timed_requests": timed,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "setup_samples": len(setups),
        "environment": environment(runner.env, startup_ms),
    }

    if args.trace:
        per_pass = [layer_metrics(runner, p) for p in traced]
        metrics = {k: (v, _unit(k)) for k, v in _median_dicts([m for m, _, _ in per_pass]).items()}
        metrics["cli.import_ms"] = (import_ms[0], "ms")
        metrics["cli.click_import_ms"] = (import_ms[1], "ms")
        metrics["python.startup_ms"] = (startup_ms, "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall_s for p in traced) / statistics.median(walls), "ratio")
        report["self_ms_by_layer"] = _median_dicts([b for _, b, _ in per_pass])
        report["self_ms_by_algebra"] = {
            s: _median_dicts([a.get(s, {}) for _, _, a in per_pass])
            for s in sorted({s for _, _, a in per_pass for s in a})
        }
        report["untraced_wall_s"] = statistics.median(walls)
    else:
        latencies = [x for p in untraced for x in p.latencies]
        p90 = percentile(latencies, 0.9)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "req_p90_ms": (1e3 * p90, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p.final["maxrss_kb"] for p in untraced) / 1024, "MB"),
        }
        report["requests_beyond_p90"] = sum(x > p90 for x in latencies)

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("max_coeff_bits"):
        return "bits"
    if name.endswith("max_residual"):
        return "residual"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
