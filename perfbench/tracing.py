"""Traced per-layer run.

The tracer wraps flowseg's public functions from outside: each wrapped call
records one span (name, tags, start, end, parent span) in memory, and a few
calls also feed counters. Wrapping replaces the function object in every
loaded flowseg module that refers to it, so calls made inside the package
(``gcm`` calling ``build_tg``, ``evaluate`` calling ``obj_hd``) nest as child
spans. Nothing under ``src/`` is changed.

One traced run makes the same library pass twice, untraced then traced, and
reports the difference as the tracing overhead. It then times one CLI round
trip step by step, and measures allocation peaks with ``tracemalloc`` in a
pass of its own so that allocation tracking never slows a timed span.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify
import workloads

# public functions wrapped per module; a name missing from the module is
# reported as absent rather than failing the run
WRAPPED = {
    "grid": ("grid_adjacency",),
    "diffusion": ("gt_displacement",),
    "cluster": ("build_tg", "contract", "connected_components", "recover", "gcm"),
    "metrics": ("match_objects", "obj_f1", "obj_dice", "obj_hd", "evaluate"),
    "getconv": (
        "query_messages", "diffusivity", "getconv_forward", "getconv_forward_jvp",
        "getblock_forward", "depthwise", "pointwise",
    ),
    "fileio": ("write_map", "read_map", "write_field", "read_field"),
}

STENCILS = ("disk5", "square3")

# per-layer metric -> (span name, tag the span must carry); the value is the
# summed inclusive duration of the matching spans
SPAN_METRICS = {
    "grid.adjacency_s": ("grid.grid_adjacency", None),
    "diffusion.gt_displacement_s": ("diffusion.gt_displacement", "df-roundtrip"),
    **{
        f"cluster.{fn}_s": (f"cluster.{fn}", "cluster-eval")
        for fn in ("build_tg", "contract", "connected_components", "recover", "gcm")
    },
    **{
        f"metrics.{fn}_s": (f"metrics.{fn}", "cluster-eval")
        for fn in ("match_objects", "obj_f1", "obj_dice", "obj_hd", "evaluate")
    },
    **{
        f"getconv.{st}.{key}_s": (f"getconv.{fn}", st)
        for st in STENCILS
        for key, fn in (
            ("query", "query_messages"), ("diffusivity", "diffusivity"),
            ("forward", "getconv_forward"), ("jvp", "getconv_forward_jvp"),
        )
    },
    "getconv.getblock_s": ("getconv.getblock_forward", "block"),
    "getconv.depthwise_s": ("getconv.depthwise", "block"),
    "getconv.pointwise_s": ("getconv.pointwise", "block"),
    **{f"fileio.{fn}_s": (f"fileio.{fn}", "fileio") for fn in ("write_map", "read_map", "write_field", "read_field")},
    **{f"cli.{step}_s": (f"cli.{step}", "cli-roundtrip") for step in ("synth", "gen_df", "cluster", "eval")},
}

# metric -> unit, for every per-layer metric the traced run reports
UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{f"getconv.{st}.aggregate_norm_s": "s" for st in STENCILS},
    "cli.import_s": "s",
    "grid.adjacency_alloc_mb": "MB",
    "diffusion.gt_displacement_alloc_mb": "MB",
    "metrics.obj_hd_alloc_mb": "MB",
    **{f"getconv.{st}.forward_alloc_mb": "MB" for st in STENCILS},
    "diffusion.movable_px": "count",
    "cluster.seeds": "count",
    "cluster.unsettled_px": "count",
    "metrics.gt_objects": "count",
    "metrics.pred_objects": "count",
    "metrics.boundary_px": "count",
    **{f"getconv.{st}.clamped_edges": "count" for st in STENCILS},
    "fileio.bytes": "count",
}

FILEIO_CYCLES = 10
EXP_CLAMPED = float(np.exp(30.0))


@dataclass
class Span:
    name: str
    tags: tuple[str, ...]
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._tags: list[str] = []

    @contextmanager
    def tag(self, name: str):
        self._tags.append(name)
        try:
            yield
        finally:
            self._tags.pop()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, tuple(self._tags), time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        traced.original = fn
        return traced

    @contextmanager
    def installed(self, fs, absent: set[str]):
        """Swap every wrapped public function for its traced version."""
        modules = [m for n, m in list(sys.modules.items()) if n == "flowseg" or n.startswith("flowseg.")]
        swapped = []
        for mod_name, names in WRAPPED.items():
            module = getattr(fs, mod_name, None)
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    absent.add(f"{mod_name}.{fn_name}")
                    continue
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            swapped.append((m, attr, original))
        try:
            yield
        finally:
            for m, attr, original in swapped:
                setattr(m, attr, original)

    def total(self, name: str, tag: str | None) -> float | None:
        hits = [s.end - s.start for s in self.spans if s.name == name and (tag is None or tag in s.tags)]
        return sum(hits) if hits else None

    def summary(self) -> list[dict]:
        """Calls, inclusive and self time per (span name, innermost tag)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        rows: dict[tuple[str, str], dict] = {}
        for s, covered in zip(self.spans, child):
            key = (s.name, s.tags[-1] if s.tags else "")
            row = rows.setdefault(key, {"span": key[0], "tag": key[1], "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
        return list(rows.values())


def _tag_of(tracer: Tracer, choices) -> str | None:
    return next((t for t in reversed(tracer._tags) if t in choices), None)


def _count_seeds(tracer, args, out):
    if "cluster-eval" in tracer._tags:
        tracer.counts["cluster.seeds"] += int(np.asarray(out).max(initial=0))


def _count_unsettled(tracer, args, out):
    # labels that would still change in one more recover round
    if "cluster-eval" in tracer._tags:
        graph = args[0]
        nxt = getattr(graph, "source", None)
        nxt = getattr(graph, "target", None) if nxt is None else nxt
        flat = np.asarray(out).ravel()
        tracer.counts["cluster.unsettled_px"] += int((flat[nxt] != flat).sum())


def _count_objects(tracer, args, out):
    if "cluster-eval" in tracer._tags:
        pred, gt = np.asarray(args[0]), np.asarray(args[1])
        tracer.counts["metrics.gt_objects"] += int(np.unique(gt[gt > 0]).size)
        tracer.counts["metrics.pred_objects"] += int(np.unique(pred[pred > 0]).size)
        tracer.counts["metrics.boundary_px"] += verify.boundary_pixels(gt) + verify.boundary_pixels(pred)


def _count_clamped(tracer, args, out):
    stencil = _tag_of(tracer, STENCILS)
    if stencil is not None:
        tracer.counts[f"getconv.{stencil}.clamped_edges"] += int((np.asarray(out) == EXP_CLAMPED).sum())


COUNTERS = {
    "cluster.connected_components": _count_seeds,
    "cluster.recover": _count_unsettled,
    "metrics.evaluate": _count_objects,
    "getconv.diffusivity": _count_clamped,
}


def _fileio_cycles(fs, wl: workloads.DfRoundtrip, tracer, directory: Path) -> int:
    """Write and read back the df fixture's map and field; returns bytes written."""
    labels, field = wl.last["random-voronoi"]
    written = 0
    with tracer.tag("fileio"):
        for _ in range(FILEIO_CYCLES):
            fs.write_map(directory / "map.pgm", labels)
            fs.write_field(directory / "field.df", field)
            back = fs.read_map(directory / "map.pgm")
            fs.read_field(directory / "field.df")
            written += sum(p.stat().st_size for p in directory.iterdir())
            for p in directory.iterdir():
                p.unlink()
    if not np.array_equal(back, labels):
        raise RuntimeError("map read back differs from the map written")
    return written


def _clear_tables(fs) -> bool:
    """Empty the adjacency-table cache, if the program keeps one."""
    fn = fs.grid.grid_adjacency
    clear = getattr(getattr(fn, "original", fn), "cache_clear", None)
    if clear is not None:
        clear()
    return clear is not None


def library_pass(fs, libs, tracer) -> tuple[float, list[str], int]:
    """One op of each library workload (df on its voronoi fixture only)."""
    _clear_tables(fs)  # every pass builds its tables cold, as a fresh process does
    elapsed, problems, ops = 0.0, [], 0
    for wl in libs:
        wl.tracer = tracer
        chosen = wl.ops(("random-voronoi",)) if isinstance(wl, workloads.DfRoundtrip) else wl.ops()
        for op in chosen:
            t0 = time.perf_counter()
            out = op.run()
            elapsed += time.perf_counter() - t0
            problems += op.check(out)
            ops += 1
    return elapsed, problems, ops


def _alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def alloc_pass(fs, df, ce, gc) -> dict[str, float]:
    """tracemalloc peaks, in a pass apart from the timed ones."""
    out = {}
    if _clear_tables(fs):
        out["grid.adjacency_alloc_mb"] = _alloc_mb(
            lambda: fs.grid_adjacency(fs.GridShape(df.size, df.size), fs.disk(workloads.RADIUS))
        )
    labels = df.last["random-voronoi"][0]
    # the peak repeats every round, so two rounds show it
    out["diffusion.gt_displacement_alloc_mb"] = _alloc_mb(
        lambda: fs.gt_displacement(labels, workloads.RADIUS, 2)
    )
    merged = ce.last[2]
    out["metrics.obj_hd_alloc_mb"] = _alloc_mb(lambda: fs.obj_hd(merged, ce.inp.labels))
    for st in STENCILS:
        spec, params = gc.stencils[st]
        adj = fs.grid_adjacency(gc.shape, spec)
        out[f"getconv.{st}.forward_alloc_mb"] = _alloc_mb(
            lambda: fs.getconv_forward(gc.feats, adj, params)
        )
    return out


def import_seconds(root: Path) -> float:
    code = (
        "import time; t = time.perf_counter(); import flowseg; "
        "print(repr(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=workloads.child_env(root),
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip())


def run(fs, workload: str, seed: int, root: Path, sizes=None, log=print) -> dict:
    """The traced per-layer run; the same pass whatever ``workload`` names."""
    sizes = sizes or workloads.SIZES
    df = workloads.DfRoundtrip(fs, seed, sizes["df-roundtrip"], root)
    ce = workloads.ClusterEval(fs, seed, sizes["cluster-eval"], root)
    gc = workloads.GetconvLayer(fs, seed, sizes["getconv-layer"], root)
    cli = workloads.CliRoundtrip(fs, seed, sizes["cli-roundtrip"], root)
    libs = (df, ce, gc)
    for wl in libs:
        exec(wl.warmup_source(), {"fs": fs, "np": np})

    absent: set[str] = set()
    untraced_s, problems, ops = library_pass(fs, libs, workloads.NoTrace())
    tracer = Tracer()
    try:
        with tracer.installed(fs, absent):
            traced_s, found, n = library_pass(fs, libs, tracer)
            problems += found
            ops += n
            io_dir = cli.dir / "fileio"
            io_dir.mkdir(exist_ok=True)
            tracer.counts["fileio.bytes"] = _fileio_cycles(fs, df, tracer, io_dir)
            io_dir.rmdir()
        cli.tracer = tracer
        for op in cli.ops(("random-voronoi",)):
            problems += op.check(op.run())
            ops += 1
        problems += cli.final_checks()
    finally:
        cli.close()
    tracer.counts["diffusion.movable_px"] = verify.movable_pixels(df.last["random-voronoi"][0], workloads.RADIUS)

    values: dict[str, float] = {}
    for metric, (span, tag) in SPAN_METRICS.items():
        total = tracer.total(span, tag)
        if total is not None:
            values[metric] = total
    for st in STENCILS:
        parts = [values.get(f"getconv.{st}.{k}_s") for k in ("forward", "query", "diffusivity")]
        if None not in parts:
            values[f"getconv.{st}.aggregate_norm_s"] = parts[0] - parts[1] - parts[2]
    values["cli.import_s"] = statistics.median(import_seconds(root) for _ in range(3))
    values.update(alloc_pass(fs, df, ce, gc))
    values.update(tracer.counts)

    overhead = traced_s / untraced_s - 1.0
    rows = sorted(tracer.summary(), key=lambda r: (r["tag"], r["span"]))
    log(f"{'span':34} {'tag':14} {'calls':>5} {'total_s':>9} {'self_s':>9}")
    for r in rows:
        log(f"{r['span']:34} {r['tag']:14} {r['calls']:5d} {r['total_s']:9.4f} {r['self_s']:9.4f}")
    log("derived: getconv.<stencil>.aggregate_norm_s = forward - query - diffusivity")
    log(f"library pass untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, overhead {100 * overhead:+.2f}%")
    missing = sorted(set(UNITS) - set(values))
    if absent or missing:
        log(f"absent functions: {sorted(absent)}; absent metrics: {missing}")
    for p in problems:
        log(f"check failed: {p}")

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "overhead": overhead,
        "spans": [s.__dict__ for s in tracer.spans],
        "summary": rows,
    }))
    return {
        "correct": not problems,
        "attempted": ops,
        "failed": 0,
        "metrics": {m: {"value": values[m], "unit": UNITS[m]} for m in UNITS if m in values},
    }
