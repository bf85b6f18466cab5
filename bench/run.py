"""Benchmark runner for the `inertbarrier` CLI.

    python3 bench/run.py --workload long-horizon|meanfield
                         --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh process (bench/worker.py) with every BLAS/OpenMP thread count pinned to
1, one process at a time.  Passes repeat while another one still fits in S
seconds; the end-to-end metrics are medians over them.  set-up is timed on
extra processes that only import and write configs, and on every pass.

Every invocation's outputs are checked (workloads.check) and hashed; a pass
whose CSV digests differ from the first pass's fails those invocations.  With
--trace 1 the run makes one plain pass and one traced pass and reports the
per-layer metrics instead, with the tracing overhead.

The last line of stdout is the result: correct, attempted, failed and the
metrics.  The line before it is the report: machine facts, versions,
per-subcommand seconds and every per-layer metric.  bench/.work/<workload>/
report.json adds each pass, with every invocation's check result and digests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import SIZES, WORKLOADS, check, invocations, mc_pde_gap  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "io.bytes": "count",
    "io.write_s": "s",
    "io.ns_per_byte": "ns",
    "particles.streams": "count",
    "particles.stream_us": "us",
    "particles.normals": "count",
    "particles.fill_ns": "ns",
    "particles.unique_draw_ratio": "ratio",
    "paths.objects": "count",
    "paths.object_us": "us",
    "gamma.particle_steps": "count",
    "meanfield.mc.sweeps": "count",
    "meanfield.pde.steps": "count",
    "meanfield.pde.node_steps": "count",
    "meanfield.pde.ns_per_node_step": "ns",
    "meanfield.pde.banded_share": "share",
    "wasserstein.w1_calls": "count",
    **{f"{layer}.self_share": "share" for layer in (
        "cli", "io", "harness", "particles", "paths", "gamma", "meanfield", "wasserstein")},
    "trace.overhead_share": "share",
}


class BenchError(Exception):
    """The benchmark could not measure: no result line is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src", BENCH_DIR])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args: list[str], stderr_path: str, deadline: float) -> dict:
    """Start a worker; returns its set-up time, its JSON result and its rusage."""
    t0 = time.perf_counter()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args], stdout=subprocess.PIPE, stderr=err,
            env=_worker_env(), text=True,
        )
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        with open(stderr_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{tail}")
    lines = rest.strip().splitlines()
    return {
        "setup_s": setup_s,
        "result": json.loads(lines[-1]) if lines else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _digests(outdir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Run:
    """One benchmark run: set-up probes, passes, checks and the report."""

    def __init__(self, workload: str, seed: int, size: str, workdir: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.workdir = workdir
        self.invs = invocations(workload, seed, size)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.setup_s: list[float] = []
        self.passes: list[dict] = []
        self.reference: dict[str, dict] = {}
        self.versions: dict = {}

    def _base_args(self, outdir: str) -> list[str]:
        return ["--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--out", outdir]

    def probe_setup(self, count: int) -> None:
        outdir = os.path.join(self.workdir, "probe")
        for k in range(count + 1):
            shutil.rmtree(outdir, ignore_errors=True)
            probe = _spawn(self._base_args(outdir) + ["--setup-only"],
                           os.path.join(self.workdir, "probe.stderr"), self.deadline)
            if k:  # the first probe fills the bytecode caches
                self.setup_s.append(probe["setup_s"])

    def run_pass(self, traced: bool = False) -> dict:
        outdir = os.path.join(self.workdir, "pass")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        t0 = time.perf_counter()
        child = _spawn(self._base_args(outdir) + (["--trace"] if traced else []),
                       os.path.join(self.workdir, "pass.stderr"), self.deadline)
        result = child["result"]
        self.setup_s.append(child["setup_s"])
        self.versions = result["versions"]
        records = self.evaluate(outdir, result["invocations"])
        gap = None
        if self.workload == "meanfield" and not any(r["failures"] for r in records):
            gap = mc_pde_gap(os.path.join(outdir, "limit-mc"), os.path.join(outdir, "limit-pde"))
        summary = {
            "traced": traced,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "setup_s": child["setup_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "elapsed_s": time.perf_counter() - t0,
            "mc_pde_gap": gap,
            "invocations": records,
            "layers": result.get("layers"),
            "spans": result.get("spans"),
        }
        self.passes.append(summary)
        return summary

    def discard_outputs(self) -> None:
        """Delete the last pass's outputs once checked and hashed.

        Unlinked seconds after they were written, well inside the kernel's
        usual 30 s dirty-page expiry, the up to 75 MB of CSV a pass writes are
        normally dropped before write-back, so no write-back competes with a
        later pass.  A traced pass's spans.csv is kept.
        """
        for inv in self.invs:
            shutil.rmtree(os.path.join(self.workdir, "pass", inv.key), ignore_errors=True)

    def evaluate(self, outdir: str, worker_records: list[dict]) -> list[dict]:
        """Check and hash each invocation's outputs in `outdir`."""
        records = []
        for inv, rec in zip(self.invs, worker_records):
            inv_dir = os.path.join(outdir, inv.key)
            failures = check(inv, inv_dir, rec["exit_code"])
            digests = _digests(inv_dir)
            first = self.reference.setdefault(inv.key, digests)
            if digests != first:
                failures.append("CSV digests differ from the run's first pass")
            records.append({"key": inv.key, "command": inv.command, "seed": inv.seed,
                            "exit_code": rec["exit_code"], "seconds": rec["seconds"],
                            "failures": failures, "digests": digests})
        return records

    def plain_passes(self) -> list[dict]:
        return [p for p in self.passes if not p["traced"]]

    def end_to_end(self) -> dict[str, float]:
        plain = self.plain_passes()
        return {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }

    def per_layer(self) -> dict[str, float]:
        traced = [p for p in self.passes if p["traced"]][-1]
        plain_wall = statistics.median(p["wall_s"] for p in self.plain_passes())
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = traced["wall_s"] / plain_wall - 1.0
        return layers

    def subcommand_s(self) -> dict[str, float]:
        per_pass = []
        for p in self.plain_passes():
            totals: dict[str, float] = {}
            for r in p["invocations"]:
                totals[r["command"]] = totals.get(r["command"], 0.0) + r["seconds"]
            per_pass.append(totals)
        return {cmd: statistics.median(t[cmd] for t in per_pass) for cmd in per_pass[0]}


def tally(passes: list[dict]) -> tuple[int, int]:
    """(invocations attempted, invocations failed) over the passes."""
    records = [r for p in passes for r in p["invocations"]]
    return len(records), sum(1 for r in records if r["failures"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _last_level_cache() -> str | None:
    """Size of cpu0's highest-level cache as the kernel reports it, e.g. '32768K'."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for index in [d for d in os.listdir(base) if d.startswith("index")]:
            with open(os.path.join(base, index, "level")) as lv, \
                    open(os.path.join(base, index, "size")) as sz:
                level, size = int(lv.read()), sz.read().strip()
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "platform": platform.platform(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def _metric_block(values: dict, units: dict) -> dict:
    missing = [name for name in units if values.get(name) is None]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Run the benchmark; returns (result line, full report)."""
    if not os.path.isfile(os.path.join("src", "inertbarrier", "cli.py")):
        raise BenchError("run from the root of an inertbarrier checkout: src/inertbarrier is missing")
    sys.path.insert(0, os.path.abspath("src"))  # the output checks read fields back through it
    workdir = os.path.join(BENCH_DIR, ".work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    started = time.perf_counter()
    run = Run(workload, seed, size, workdir)
    run.probe_setup(SETUP_PROBES)
    if trace:
        run.run_pass()
        run.discard_outputs()
        run.run_pass(traced=True)
        run.discard_outputs()
    else:
        while True:
            run.run_pass()
            run.discard_outputs()
            typical = statistics.median(p["elapsed_s"] for p in run.passes)
            if time.perf_counter() - started + typical > seconds:
                break

    attempted, failed = tally(run.passes)
    e2e = run.end_to_end()
    layers = run.per_layer() if trace else None
    metrics = _metric_block(layers, PER_LAYER) if trace else _metric_block(e2e, END_TO_END)
    gaps = [p["mc_pde_gap"] for p in run.passes if p["mc_pde_gap"] is not None]
    report = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "versions": run.versions,
        "end_to_end": e2e,
        "failed_frac": failed / attempted,
        "subcommand_s": run.subcommand_s(),
        "mc_pde_gap": gaps[0] if gaps else None,
        "setup_samples_s": run.setup_s,
        "layers": layers,
        "passes": run.passes,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    slim = {k: v for k, v in report.items() if k != "passes"}
    print(json.dumps(slim))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
