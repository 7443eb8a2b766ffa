"""The four benchmark workloads.

A workload builds its inputs from a seed, names the warm-up that fills the
program's caches, and yields the operations of one round. Each operation is a
pair: ``run`` makes the timed calls into flowseg, ``check`` inspects the
result afterwards and returns a list of problems (empty when correct).
``final_checks`` runs once after the timed rounds, for checks that cost too
much to repeat on every operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import ndimage

import inputs
import verify

RADIUS, ITERS = 5, 96
CHANNELS = 32
FIXTURES = ("random-voronoi", "two-blobs-adherent", "concave-horseshoe")

# full sizes, and the tiny ones the benchmark's tests use
SIZES = {"df-roundtrip": 128, "cluster-eval": 512, "getconv-layer": 160, "cli-roundtrip": 64}
TINY = {"df-roundtrip": 24, "cluster-eval": 64, "getconv-layer": 10, "cli-roundtrip": 24}


class NoTrace:
    """Stand-in for :class:`tracing.Tracer` when tracing is off."""

    def span(self, name: str):
        return nullcontext()

    def tag(self, name: str):
        return nullcontext()


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's src, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Workload:
    name = ""

    def __init__(self, fs, seed: int, size: int, root: Path):
        self.fs, self.seed, self.size, self.root = fs, seed, size, root
        self.tracer = NoTrace()

    def warmup_source(self) -> str:
        """Python run after ``import flowseg as fs`` and ``import numpy as np``."""
        return "pass"

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class DfRoundtrip(Workload):
    """Library synth -> gt_displacement -> gcm -> evaluate, one op per fixture."""

    name = "df-roundtrip"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last: dict[str, tuple] = {}

    def warmup_source(self) -> str:
        return f"fs.gt_displacement(np.zeros(({self.size}, {self.size}), np.int64), {RADIUS}, 0)"

    def ops(self, fixtures=FIXTURES) -> list[Op]:
        return [Op(name, lambda name=name: self._run(name), self._check) for name in fixtures]

    def _run(self, name):
        fs = self.fs
        with self.tracer.tag(self.name):
            labels = fs.synth(name, (self.size, self.size), self.seed)
            field = fs.gt_displacement(labels, RADIUS, ITERS)
            pred = fs.gcm(field, (labels > 0).astype(np.int64))
            record = fs.evaluate(pred, labels)
        return name, labels, field, pred, record

    def _check(self, out) -> list[str]:
        name, labels, field, pred, record = out
        self.last[name] = (labels, field)
        problems = []
        if not verify.same_partition(pred, labels):
            problems.append(f"{name}: recovered map is not the label partition")
        if verify.scores(record) != (1.0, 1.0, 0.0):
            problems.append(f"{name}: scores {verify.scores(record)} != (1, 1, 0)")
        return problems

    def final_checks(self) -> list[str]:
        fs = self.fs
        problems = []
        for name, (labels, field) in self.last.items():
            got = fs.gt_displacement(labels, RADIUS, 1)
            err = float(np.abs(got - verify.one_step_mean(labels, RADIUS)).max())
            if not err <= 1e-9:
                problems.append(f"{name}: one-step field off by {err:.3g}")
            energy = (labels > 0).astype(np.int64)
            total = fs.contract(fs.build_tg(field, energy), 2).mes.sum()
            if total != energy.sum():
                problems.append(f"{name}: contraction moved total message {energy.sum()} -> {total}")
        return problems


class ClusterEval(Workload):
    """gcm + evaluate on a lattice Voronoi map: a site field and a zero field."""

    name = "cluster-eval"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        size, seed = self.size, self.seed
        self.inp = inputs.lattice_voronoi(size, max(4, round(size / 24)), seed)
        self.ones = np.ones_like(self.inp.labels)
        self.zero = np.zeros_like(self.inp.field)
        self.merged, _ = ndimage.label(self.inp.energy, structure=np.ones((3, 3)))
        self.merged_f1 = verify.expected_f1(self.inp.labels, self.merged)
        self.last = None

    def warmup_source(self) -> str:
        return (
            "m = np.ones((8, 8), np.int64); "
            "fs.evaluate(fs.gcm(np.zeros((8, 8, 2)), m), m)"
        )

    def ops(self) -> list[Op]:
        return [Op("site+zero", self._run, self._check)]

    def _run(self):
        fs, lab = self.fs, self.inp.labels
        with self.tracer.tag(self.name):
            site = fs.gcm(self.inp.field, self.ones)
            site_rec = fs.evaluate(site, lab)
            merged = fs.gcm(self.zero, self.inp.energy)
            merged_rec = fs.evaluate(merged, lab)
        return site, site_rec, merged, merged_rec

    def _check(self, out) -> list[str]:
        site, site_rec, merged, merged_rec = out
        self.last = out
        problems = []
        if not verify.same_partition(site, self.inp.labels):
            problems.append("site-field prediction is not the label partition")
        if verify.scores(site_rec) != (1.0, 1.0, 0.0):
            problems.append(f"site-field scores {verify.scores(site_rec)} != (1, 1, 0)")
        if not verify.same_partition(merged, self.merged):
            problems.append("zero-field prediction is not the 8-connected energy components")
        if abs(merged_rec["obj_f1"] - self.merged_f1) > 1e-12:
            problems.append(f"obj_f1 {merged_rec['obj_f1']} != overlap-table {self.merged_f1}")
        if not 0.0 <= merged_rec["obj_dice"] <= 1.0:
            problems.append(f"obj_dice {merged_rec['obj_dice']} outside [0, 1]")
        if not 0.0 <= merged_rec["obj_hd"] < np.inf:
            problems.append(f"obj_hd {merged_rec['obj_hd']} not finite and >= 0")
        return problems

    def final_checks(self) -> list[str]:
        got = self.last[3]["obj_hd"]
        want = verify.hausdorff_score(self.merged, self.inp.labels)
        if not abs(got - want) <= 1e-9 * max(1.0, want):
            return [f"merged obj_hd {got} != k-d tree Hausdorff score {want}"]
        return []


class GetconvLayer(Workload):
    """getconv forward + JVP with disk(5) and square(3), plus getblock square(3)."""

    name = "getconv-layer"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        fs, seed, size = self.fs, self.seed, self.size
        self.feats, self.tangent, self.grid_feats = inputs.getconv_inputs(size, CHANNELS, seed)
        rng = np.random.default_rng(seed + 1)
        self.stencils = {
            "disk5": (fs.disk(5), fs.random_layer_params(rng, CHANNELS, len(verify.stencil_offsets("disk", 5)))),
            "square3": (fs.square(3), fs.random_layer_params(rng, CHANNELS, 8, kernel=3)),
        }
        self.shape = fs.GridShape(size, size)
        self.last = None

    def warmup_source(self) -> str:
        s = self.size
        return (
            f"fs.grid_adjacency(fs.GridShape({s}, {s}), fs.disk(5)); "
            f"fs.grid_adjacency(fs.GridShape({s}, {s}), fs.square(3))"
        )

    def ops(self) -> list[Op]:
        return [Op("forward+jvp+block", self._run, self._check)]

    def _run(self):
        fs = self.fs
        out = {}
        with self.tracer.tag(self.name):
            for key, (spec, params) in self.stencils.items():
                with self.tracer.tag(key):
                    adj = fs.grid_adjacency(self.shape, spec)
                    y = fs.getconv_forward(self.feats, adj, params)
                    y_jvp, dy = fs.getconv_forward_jvp(self.feats, self.tangent, adj, params)
                out[key] = (y, y_jvp, dy)
            spec, params = self.stencils["square3"]
            with self.tracer.tag("block"):
                block = fs.getblock_forward(self.grid_feats, spec, params)
        return out, block

    def _check(self, out) -> list[str]:
        layers, block = out
        self.last = out
        problems = []
        for key, (y, y_jvp, _) in layers.items():
            params = self.stencils[key][1]
            if not verify.standardized(y, self.feats, params.beta, params.gamma):
                problems.append(f"{key}: forward output is not standardized per channel")
            if not np.allclose(y_jvp, y, rtol=0, atol=1e-9):
                problems.append(f"{key}: JVP primal differs from the forward")
        params = self.stencils["square3"][1]
        if not verify.standardized(block, self.grid_feats, params.beta, params.gamma):
            problems.append("getblock output is not standardized per channel")
        return problems

    def final_checks(self) -> list[str]:
        fs = self.fs
        problems = []
        shape = (self.size, self.size)
        layers, block = self.last
        for key, (y, _, _) in layers.items():
            spec, params = self.stencils[key]
            offsets = verify.stencil_offsets(spec.kind, spec.size)
            agg = verify.anisotropic_aggregate(self.feats, shape, offsets, params)
            err = float(np.abs(y - (self.feats + agg * params.gamma + params.beta)).max())
            if not err <= 1e-9:
                problems.append(f"{key}: forward off the shifted-slice aggregate by {err:.3g}")
        spec, params = self.stencils["square3"]
        offsets = verify.stencil_offsets(spec.kind, spec.size)
        mixed = (verify.depthwise(self.grid_feats, params.dw) @ params.pw.T).reshape(-1, CHANNELS)
        agg = verify.anisotropic_aggregate(mixed, shape, offsets, params)
        want = self.grid_feats.reshape(-1, CHANNELS) + agg * params.gamma + params.beta
        err = float(np.abs(block.reshape(-1, CHANNELS) - want).max())
        if not err <= 1e-9:
            problems.append(f"getblock off the shifted-slice block by {err:.3g}")
        for key, (_, _, dy) in layers.items():
            spec, params = self.stencils[key]
            adj = fs.grid_adjacency(self.shape, spec)
            err = verify.jvp_error(
                lambda z: fs.getconv_forward(z, adj, params), self.feats, self.tangent, dy
            )
            if not err < 1e-4:
                problems.append(f"{key}: JVP vs central difference relative error {err:.3g}")
        return problems


class CliRoundtrip(Workload):
    """Four ``python -m flowseg.cli`` processes per fixture, files in between."""

    name = "cli-roundtrip"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = child_env(self.root)
        self.dir = self.root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.last: dict[str, np.ndarray] = {}

    def ops(self, fixtures=FIXTURES) -> list[Op]:
        return [Op(name, lambda name=name: self._run(name), self._check) for name in fixtures]

    def _cli(self, step: str, *args: str) -> str:
        with self.tracer.span(f"cli.{step}"):
            proc = subprocess.run(
                [sys.executable, "-m", "flowseg.cli", *args],
                env=self.env,
                capture_output=True,
                text=True,
                check=False,
            )
        if proc.returncode != 0:
            raise RuntimeError(f"cli {step} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def _run(self, name):
        d = self.dir
        labels, field, pred = d / f"{name}.pgm", d / f"{name}.df", d / f"{name}-pred.pgm"
        size = str(self.size)
        with self.tracer.tag(self.name):
            self._cli("synth", "synth", name, str(labels), "--height", size, "--width", size,
                      "--seed", str(self.seed))
            self._cli("gen_df", "gen-df", str(labels), str(field))
            self._cli("cluster", "cluster", str(labels), str(field), str(pred))
            record = json.loads(self._cli("eval", "eval", str(pred), str(labels)))
        return name, self.fs.read_map(pred), record

    def _check(self, out) -> list[str]:
        name, pred, record = out
        self.last[name] = pred
        problems = []
        labels = self.fs.synth(name, (self.size, self.size), self.seed)
        if not verify.same_partition(pred, labels):
            problems.append(f"{name}: CLI map is not the label partition")
        if verify.scores(record) != (1.0, 1.0, 0.0):
            problems.append(f"{name}: CLI eval printed {verify.scores(record)}")
        return problems

    def final_checks(self) -> list[str]:
        fs = self.fs
        problems = []
        for name, pred in self.last.items():
            labels = fs.synth(name, (self.size, self.size), self.seed)
            lib = fs.gcm(fs.gt_displacement(labels, RADIUS, ITERS), (labels > 0).astype(np.int64))
            if not verify.same_partition(pred, lib):
                problems.append(f"{name}: CLI map differs from the library gcm map")
        return problems

    def close(self) -> None:
        for p in self.dir.glob("*"):
            p.unlink()
        self.dir.rmdir()


WORKLOADS = {cls.name: cls for cls in (DfRoundtrip, ClusterEval, GetconvLayer, CliRoundtrip)}
