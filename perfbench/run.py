#!/usr/bin/env python3
"""Outside-in benchmark of moment-fiber.

Run from the root of a checkout; the library is imported from its ``src``:

    python3 perfbench/run.py --workload corpus --seed 20260810 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one table

One run is one fresh process and one workload (see ``workloads.py``).  It
repeats passes over the workload's ops for about ``--seconds``.  Each pass
starts with the library's caches cleared, so every pass costs what a fresh
process pays.  While ops run, the host's speed is sampled, and every time
reported is scaled to the probe's reference speed (see ``probe.py``); the
raw pass times are printed with the run's metadata.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: a fresh import of the library plus input generation, timed
  several times over the run; the median;
* ``wall_s``: the median time of one pass;
* ``op_p50_ms``, ``op_p95_ms``: latency percentiles of one request, the
  median over passes.  A request is one op where a workload's ops are
  alike (corpus), and the whole pass elsewhere;
* ``ok_ratio``: ops neither refused, crashed nor wrong, over ops attempted;
* ``peak_rss_mb``: the process's peak resident memory after timing.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over passes): for every
function in ``tracing.TRACED``, ``<module>.<function>.calls`` and
``.self_s`` (span time minus child spans), each module's ``.self_s``,
``torus.visible_decomposition.per_analyze`` and
``torus.split_indices.per_analyze``, the rank and kernel calls made inside
``torus.nonvisible_closed_witness`` (``.rank_calls``, ``.kernel_calls``),
the ``torus.mask_rank`` cache's ``.hits``, ``.misses`` and ``.hit_ratio``,
and ``trace.overhead_ratio`` (traced over untraced pass time).  The spans
of the last traced pass are written to ``perfbench/out/``.

Which layer should move which end-to-end metric, and where:

    per-layer metric                      moves           heavy in        light or absent in
    exactlin.rank_rows.self_s             wall_s          ladder          selftest, kac_scan
    exactlin.kernel_basis/solve.self_s    op_p50, wall_s  corpus          kac_scan
    polytope.*.self_s                     op_p95, wall_s  corpus, ladder  kac_scan
    torus.nonvisible_closed_witness.*,    wall_s, ok_ratio,
      torus.mask_rank.*                   peak_rss_mb     ladder          kac_scan
    torus.*.per_analyze                   wall_s          corpus          kac_scan
    oracle.*.self_s, torus.moment_eval    wall_s          selftest        corpus, ladder
    theta.graded_dims.self_s              wall_s          kac_scan        all others

Outputs are checked after the timed passes, never inside them: the first
pass in full, and every later pass against the first.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name and unit, and the run's metadata.  A refused op counts as
failed; a wrong output, a crash or a pass that differs from the first
also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-ups timed before the first pass; one more is timed before each later
# pass, so that the samples spread over the whole run.
SETUP_REPEATS = 4
LIBRARY_MODULES = ["cli", "errors", "exactlin", "oracle", "polytope", "theta", "torus"]
P95 = 0.95
SEGMENT_PROBES = 4  # least speed samples that scale a stretch of ops

# name -> unit, in the order the metrics are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class LibraryMissing(RuntimeError):
    """The checkout has no importable moment_fiber under ``src``."""


@dataclass(frozen=True)
class Refused:
    """The op raised the library's CapabilityError: a documented refusal."""

    message: str


@dataclass(frozen=True)
class Crashed:
    """The op raised anything else."""

    message: str


@dataclass
class Pass:
    """One pass over the inputs.  Times are scaled to the probe's reference
    speed (see probe.py); ``raw_wall_s`` is the plain sum of op times."""

    latencies: list[float]
    raw_wall_s: float
    fingerprints: list[str]
    outputs: list = field(default_factory=list)  # kept for the first pass only

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


# -- set-up ---------------------------------------------------------------------


def import_library() -> SimpleNamespace:
    """Import moment_fiber from this checkout's ``src``; its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {
            name: importlib.import_module(f"moment_fiber.{name}")
            for name in LIBRARY_MODULES
        }
    except ImportError as exc:
        raise LibraryMissing(f"cannot import moment_fiber from {SRC}: {exc}") from None
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LibraryMissing(f"moment_fiber was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def _forget_library() -> None:
    for key in [k for k in sys.modules if k.split(".")[0] == "moment_fiber"]:
        del sys.modules[key]


def set_up(workload: workloads.Workload, seed: int):
    """Import the library afresh and generate the inputs; time both,
    scaled to the probe's reference speed."""
    _forget_library()
    with probe.Sampler() as sampler:
        t0 = time.perf_counter()
        mf = import_library()
        inputs = workload.make_inputs(mf, seed)
        elapsed = time.perf_counter() - t0 - sampler.busy
    return mf, inputs, probe.scale(elapsed, sampler.samples or [probe.probe()])


def time_set_up(workload: workloads.Workload, seed: int) -> float:
    """Time one more set-up, then put back the modules imported before."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "moment_fiber"}
    seconds = set_up(workload, seed)[2]
    _forget_library()
    sys.modules.update(saved)
    return seconds


def library_caches(mf) -> list:
    """Every functools cache bound at module level in the library."""
    found = {}
    for mod in vars(mf).values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                found[id(value)] = value
    return list(found.values())


# -- timed passes ---------------------------------------------------------------


def run_pass(mf, workload, inputs, caches, tracer=None, keep_outputs=False) -> Pass:
    """Run every op once, timing each while the host's speed is sampled.

    Ops are grouped into segments that hold at least ``SEGMENT_PROBES``
    speed samples; each op's time is scaled by its segment's samples.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    refusal = mf.errors.CapabilityError
    clock = time.perf_counter
    outputs, raw, scaled, segment = [], [], [], []
    with probe.Sampler() as sampler:
        first_sample = 0
        for k, item in enumerate(inputs):
            if tracer is not None:
                tracer.op_id = k
            busy, start = sampler.busy, clock()
            try:
                out = workload.op(mf, item)
            except refusal as exc:
                out = Refused(f"{type(exc).__name__}: {exc}")
            except Exception:  # counted as a failed op; the run goes on
                out = Crashed(traceback.format_exc())
            raw.append(clock() - start - (sampler.busy - busy))
            outputs.append(out)
            segment.append(raw[-1])
            samples = sampler.samples[first_sample:]
            if len(samples) >= SEGMENT_PROBES or k == len(inputs) - 1:
                samples = samples or [probe.probe()]
                scaled.extend(probe.scale(t, samples) for t in segment)
                segment, first_sample = [], len(sampler.samples)
    prints = [
        repr(out) if isinstance(out, (Refused, Crashed)) else workload.fingerprint(out)
        for out in outputs
    ]
    return Pass(scaled, sum(raw), prints, outputs if keep_outputs else [])


def judge(mf, workload, inputs, passes: list[Pass]) -> tuple[int, list[str]]:
    """(failed ops over all passes, descriptions of wrong outputs).

    A refusal counts as a failed op but not as a wrong output.
    """
    first = passes[0]
    status = []
    problems = []
    for k, (item, out) in enumerate(zip(inputs, first.outputs)):
        if isinstance(out, Refused):
            status.append("refused")
            continue
        if isinstance(out, Crashed):
            reason = out.message
        else:
            reason = workload.check(mf, item, out)
        status.append("ok" if reason is None else "wrong")
        if reason is not None:
            problems.append(f"op {k}: {reason}")
    failed = sum(s != "ok" for s in status)
    for p, later in enumerate(passes[1:], start=2):
        for k, (a, b) in enumerate(zip(first.fingerprints, later.fingerprints)):
            if a != b:
                problems.append(f"pass {p} op {k}: output differs from pass 1")
                failed += 1
            else:
                failed += status[k] != "ok"
    return failed, problems


def _repeat(seconds: float, body) -> None:
    """Call ``body(first)`` at least once, then again while one more call,
    as long as the calls so far took, still ends within ``seconds``."""
    start = time.perf_counter()
    took: list[float] = []
    while not took or time.perf_counter() - start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        body(not took)
        took.append(time.perf_counter() - t0)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(mf, workload, inputs, setup_s: float, seed: int, seconds: float):
    setups = [setup_s] + [time_set_up(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    caches = library_caches(mf)
    passes: list[Pass] = []

    def one_pass(first: bool) -> None:
        if not first:
            setups.append(time_set_up(workload, seed))
        passes.append(run_pass(mf, workload, inputs, caches, keep_outputs=first))

    _repeat(seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = judge(mf, workload, inputs, passes)
    attempted = len(inputs) * len(passes)
    # A request is one op where ops are alike, else the whole pass.
    requests = [p.latencies if workload.op_latency else [p.wall_s] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(r) for r in requests),
        "op_p95_ms": 1e3 * statistics.median(nearest_rank(r, P95) for r in requests),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "pass_walls_s": [round(p.wall_s, 4) for p in passes],
        "raw_pass_walls_s": [round(p.raw_wall_s, 4) for p in passes],
        "setups_s": [round(t, 4) for t in setups],
        "requests_per_pass": len(requests[0]),
    }
    return attempted, failed, problems, metrics, dict(END_TO_END), extra


# -- traced passes ----------------------------------------------------------------


def _mask_rank_stats(mf) -> tuple[int, int]:
    cached = getattr(mf.torus, "_mask_rank", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def layer_metrics(tracer: tracing.Tracer, speed: float, hits: int, misses: int) -> dict:
    """Per-layer metrics of one traced pass; span times are multiplied by
    ``speed``, the pass's scaled over raw time."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    for layer, names in tracing.TRACED.items():
        layer_self = 0.0
        for name in names:
            key = f"{layer}.{name}"
            agg = summary.get(key, {"calls": 0, "self_s": 0.0})
            out[f"{key}.calls"] = agg["calls"]
            out[f"{key}.self_s"] = agg["self_s"] * speed
            layer_self += agg["self_s"] * speed
        out[f"{layer}.self_s"] = layer_self
    analyses = out["cli.analyze.calls"]
    for key in ("torus.visible_decomposition", "torus.split_indices"):
        out[f"{key}.per_analyze"] = out[f"{key}.calls"] / analyses if analyses else 0.0
    under = tracer.calls_under("torus.nonvisible_closed_witness")
    out["torus.nonvisible_closed_witness.rank_calls"] = under.get("exactlin.rank_rows", 0)
    out["torus.nonvisible_closed_witness.kernel_calls"] = under.get(
        "exactlin.kernel_basis", 0
    )
    out["torus.mask_rank.hits"] = hits
    out["torus.mask_rank.misses"] = misses
    out["torus.mask_rank.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def layer_units(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", "per_analyze")):
        return "ratio"
    return "count"


def per_layer(mf, workload, inputs, seconds: float, meta: dict):
    caches = library_caches(mf)
    modules = vars(mf)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    last = {}

    def pair(first: bool) -> None:
        untraced.append(run_pass(mf, workload, inputs, caches, keep_outputs=first))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules):
            # run_pass clears the caches first, which also zeroes their
            # statistics, so the stats read after it are this pass's.
            traced.append(run_pass(mf, workload, inputs, caches, tracer=tracer))
        speed = traced[-1].wall_s / traced[-1].raw_wall_s
        layers.append(layer_metrics(tracer, speed, *_mask_rank_stats(mf)))
        last["tracer"] = tracer

    _repeat(seconds, pair)
    passes = untraced + traced
    failed, problems = judge(mf, workload, inputs, passes)
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        p.wall_s for p in traced
    ) / statistics.median(p.wall_s for p in untraced)
    units = {key: layer_units(key) for key in metrics}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{meta['seed']}.json.gz"
    last["tracer"].write(trace_path, {**meta, "metrics": metrics})
    extra = {"pairs": len(traced), "spans": len(last["tracer"]), "trace_file": str(trace_path.relative_to(ROOT))}
    return len(inputs) * len(passes), failed, problems, metrics, units, extra


# -- metadata and output ------------------------------------------------------------


def git_sha(root: Path):
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(mf, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "compiled_kernel": mf.exactlin.USING_COMPILED_KERNEL,
        "MOMENT_FIBER_PURE": os.environ.get("MOMENT_FIBER_PURE"),
    }


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    try:
        mf, inputs, setup_s = set_up(workload, args.seed)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = run_metadata(mf, args)
    if args.trace:
        result = per_layer(mf, workload, inputs, args.seconds, meta)
    else:
        result = end_to_end(mf, workload, inputs, setup_s, args.seed, args.seconds)
    attempted, failed, problems, metrics, units, extra = result
    for line in problems[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print("meta " + json.dumps({**meta, **extra}, sort_keys=True))
    for key, value in metrics.items():
        print(f"{args.workload:9s} {key:50s} {value:>14.6g} {units[key]}")
    print(f"{args.workload:9s} failed {failed} of {attempted} ops attempted")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
