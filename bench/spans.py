"""Spans at the layer boundaries of `inertbarrier`, recorded from outside.

`install` rebinds, in the calling process only, the module attributes through
which one module of the package calls another (for example `particles`
calling `gamma.solve_gamma`, or `meanfield` calling `scipy.linalg.solve_banded`)
to wrappers that record a span: name, start, end and the enclosing span.
Nothing under `src/` changes.  Spans stay in memory until `write` is called.

A span's layer is the part of its name before the first dot.  A layer's self
time is the summed duration of its spans minus the time their child spans
cover.  `skorohod` is never reached from the CLI: `particles` and `meanfield`
inline the running max, so its kernel is timed as the self time of the Picard
sweep (`meanfield.mc.reflect_ns`).
"""
from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "io", "harness", "particles", "paths", "gamma", "meanfield", "wasserstein")


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._drawn: dict = {}  # seed -> normals drawn so far from each particle's stream

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` updates counters."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count_normals(self, args, _result):
        seed, lo, hi, nsteps = args[:4]
        self.counts["particles.normals"] += (hi - lo) * nsteps
        drawn = self._drawn.get(seed, np.zeros(0, dtype=np.int64))
        if drawn.size < hi:
            drawn = self._drawn[seed] = np.pad(drawn, (0, max(hi, 2 * drawn.size) - drawn.size))
        np.maximum(drawn[lo:hi], nsteps, out=drawn[lo:hi])

    def _count_particle_steps(self, args, _result):
        f = args[0]
        self.counts["gamma.particle_steps"] += len(f) * f[0].n_steps

    def _count_path_steps(self, args, _result):
        _y, _init, M, nsteps = args[:4]
        self.counts["meanfield.mc.path_steps"] += M * (nsteps + 1)

    def _count_nodes(self, _args, result):
        self.counts["meanfield.pde.node_steps"] += result.size

    def _count_bytes(self, args, _result):
        self.counts["io.bytes"] += os.path.getsize(args[0])

    # -- results ------------------------------------------------------------

    def distinct_normals(self) -> int:
        return int(sum(int(d.sum()) for d in self._drawn.values()))

    def per_name(self) -> dict[str, dict[str, float]]:
        """count, total seconds and self seconds of each span name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=ids.size)
        own = dur - covered
        k = len(self.names)
        count = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as CSV: id, parent id (-1 for a root), name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            fh.writelines(
                f"{i},{p},{names[n]},{s},{e}\n"
                for i, (n, p, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end))
            )


def install(tracer: Tracer):
    """Wrap the package's cross-module calls; returns the traced `cli.run`."""
    from inertbarrier import cli, gamma, harness, meanfield, particles, paths

    w = tracer.wrap
    # particles: stream construction, the Gaussian driver fill, initial positions
    particles.particle_stream = w("particles.particle_stream", particles.particle_stream)
    particles._brownian_chunk = meanfield._brownian_chunk = w(
        "particles._brownian_chunk", particles._brownian_chunk, tracer._count_normals
    )
    particles._initial_chunk = meanfield._initial_chunk = w(
        "particles._initial_chunk", particles._initial_chunk
    )
    cli.simulate = harness.simulate = w("particles.simulate", particles.simulate)
    cli.snapshot = harness.snapshot = w("particles.snapshot", particles.snapshot)
    harness.sample_brownian = w("particles.sample_brownian", particles.sample_brownian)
    # gamma: the coupled barrier recursion
    particles.solve_gamma = harness.solve_gamma = w(
        "gamma.solve_gamma", gamma.solve_gamma, tracer._count_particle_steps
    )
    harness.velocity_envelope = w("gamma.velocity_envelope", gamma.velocity_envelope)
    # paths: every SampledPath construction, whoever asks for it
    paths.SampledPath.__init__ = w("paths.SampledPath", paths.SampledPath.__init__)
    # meanfield: Picard sweeps and Crank-Nicolson steps
    cli.solve_limit_mc = w("meanfield.solve_limit_mc", meanfield.solve_limit_mc)
    meanfield._mean_regulator_sweep = w(
        "meanfield.mc_sweep", meanfield._mean_regulator_sweep, tracer._count_path_steps
    )
    cli.solve_limit_pde = harness.solve_limit_pde = w(
        "meanfield.solve_limit_pde", meanfield.solve_limit_pde
    )
    cli.density_fixed_barrier = w("meanfield.density_fixed_barrier", meanfield.density_fixed_barrier)
    meanfield.solve_banded = w("meanfield.solve_banded", meanfield.solve_banded, tracer._count_nodes)
    cli.consistency_check = w("meanfield.consistency_check", meanfield.consistency_check)
    # wasserstein, harness and io, as the CLI and the studies call them
    harness.wp_vs_density = w("wasserstein.wp_vs_density", harness.wp_vs_density)
    for name in ("chaos_test", "gamma_rate_study", "hydro_convergence", "invariant_sweep"):
        setattr(cli, name, w(f"harness.{name}", getattr(cli, name)))
    for name in [n for n in vars(cli) if n.startswith("write_")]:
        setattr(cli, name, w(f"io.{name}", getattr(cli, name), tracer._count_bytes))
    return w("cli.run", cli.run)


def _ratio(num: float, den: float, scale: float = 1.0):
    return num / den * scale if den else None


def layer_metrics(tracer: Tracer, spans: dict[str, dict[str, float]]) -> dict:
    """Every per-layer metric of one traced pass; None where a layer did no work.

    `spans` is `tracer.per_name()`.
    """
    counts = tracer.counts

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in spans.items():
        layer_self[name.split(".", 1)[0]] += s["self_s"]
    traced_s = total("cli.run")
    io_s = total(*[n for n in spans if n.startswith("io.")])
    streams = count("particles.particle_stream")
    normals = counts["particles.normals"]
    objects = count("paths.SampledPath")
    sweeps = count("meanfield.mc_sweep")
    sweep_s = total("meanfield.mc_sweep")
    sweep_self = own("meanfield.mc_sweep")
    solver_s = total("meanfield.solve_limit_pde", "meanfield.density_fixed_barrier")
    w1_calls = count("wasserstein.wp_vs_density")

    metrics = {
        "cli.self_s": layer_self["cli"],
        "io.bytes": counts["io.bytes"],
        "io.write_s": io_s,
        "io.ns_per_byte": _ratio(io_s, counts["io.bytes"], 1e9),
        "particles.streams": streams,
        "particles.stream_us": _ratio(total("particles.particle_stream"), streams, 1e6),
        "particles.normals": normals,
        "particles.fill_ns": _ratio(own("particles._brownian_chunk"), normals, 1e9),
        "particles.unique_draw_ratio": _ratio(tracer.distinct_normals(), normals),
        "paths.objects": objects,
        "paths.object_us": _ratio(total("paths.SampledPath"), objects, 1e6),
        "gamma.particle_steps": counts["gamma.particle_steps"],
        "gamma.step_ns": _ratio(own("gamma.solve_gamma"), counts["gamma.particle_steps"], 1e9),
        "meanfield.mc.sweeps": sweeps,
        "meanfield.mc.sweep_s": _ratio(sweep_s, sweeps),
        "meanfield.mc.regen_share": _ratio(sweep_s - sweep_self, sweep_s),
        "meanfield.mc.reflect_ns": _ratio(sweep_self, counts["meanfield.mc.path_steps"], 1e9),
        "meanfield.pde.steps": count("meanfield.solve_banded"),
        "meanfield.pde.node_steps": counts["meanfield.pde.node_steps"],
        "meanfield.pde.ns_per_node_step": _ratio(solver_s, counts["meanfield.pde.node_steps"], 1e9),
        "meanfield.pde.banded_share": _ratio(total("meanfield.solve_banded"), solver_s),
        "wasserstein.w1_calls": w1_calls,
        "wasserstein.w1_ms": _ratio(total("wasserstein.wp_vs_density"), w1_calls, 1e3),
        "harness.self_s": layer_self["harness"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(layer_self[layer], traced_s)
    return metrics
