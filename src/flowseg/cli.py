"""Command-line surface.

Subcommands: ``synth`` (write a fixture label map), ``gen-df`` (label map to
displacement field), ``cluster`` (energy map + field to instance map),
``eval`` (metrics JSON on stdout), and ``getconv-check`` (layer verification,
nonzero exit on failure). Exit codes: 0 success, 1 runtime or validation
failure, 2 usage error; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import JACOBIAN_OPS, JACOBIAN_TOL, isomorphism_probe, jacobian_check, random_check_point
from .cluster import gcm
from .diffusion import gt_displacement
from .fileio import read_field, read_map, write_field, write_map
from .metrics import evaluate
from .synth import synth

PROBE_GAP = 1e-6  # smallest anisotropic probe gap that counts as visible


def _cmd_synth(args) -> int:
    labels = synth(args.name, (args.height, args.width), args.seed)
    write_map(args.out, labels)
    return 0


def _cmd_gen_df(args) -> int:
    labels = read_map(args.labels)
    field = gt_displacement(labels, radius=args.radius, iters=args.iters)
    write_field(args.out, field)
    return 0


def _cmd_cluster(args) -> int:
    energy = read_map(args.energy)
    field = read_field(args.field)
    write_map(args.out, gcm(field, energy, t0=args.t0, t1=args.t1))
    return 0


def _cmd_eval(args) -> int:
    record = evaluate(read_map(args.pred), read_map(args.gt))
    print(json.dumps(record))
    return 0


def _cmd_getconv_check(args) -> int:
    # with no seed or no point, no check would run and the command would pass
    for flag, count in (("--seeds", args.seeds), ("--points", args.points)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1, got {count}")
    ok = True

    iso_zero = 0
    aniso_hits = 0
    for seed in range(args.seeds):
        rep = isomorphism_probe(seed)
        iso_zero += rep.isotropic_gap == 0.0
        aniso_hits += rep.anisotropic_gap > PROBE_GAP
    need = -(-99 * args.seeds // 100)  # ceil(0.99 * seeds)
    print(f"isomorphism probe: isotropic gap exactly 0 in {iso_zero}/{args.seeds} seeds")
    print(
        f"isomorphism probe: anisotropic gap > {PROBE_GAP:g} "
        f"in {aniso_hits}/{args.seeds} seeds (need >= {need})"
    )
    ok &= iso_zero == args.seeds and aniso_hits >= need

    for op in JACOBIAN_OPS:
        worst = 0.0
        for i in range(args.points):
            rep = jacobian_check(random_check_point(op, seed=10_000 + 97 * i))
            worst = max(worst, rep.max_rel_err)
        print(f"jacobian {op}: max relative error {worst:.3e} (tol {JACOBIAN_TOL:g})")
        ok &= worst < JACOBIAN_TOL

    print("getconv-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowseg",
        description="Displacement-field clustering for pixel-grid instance segmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic fixture label map (P5)")
    p.add_argument("name", help="fixture name, e.g. two-blobs-adherent")
    p.add_argument("out", help="output P5 path")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gen-df", help="label map -> displacement field")
    p.add_argument("labels", help="input P5 label map")
    p.add_argument("out", help="output field path (FD header, f64le planes)")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--iters", type=int, default=96)
    p.set_defaults(func=_cmd_gen_df)

    p = sub.add_parser("cluster", help="energy map + field -> instance map")
    p.add_argument("energy", help="input P5 energy map")
    p.add_argument("field", help="input displacement field")
    p.add_argument("out", help="output P5 instance map")
    p.add_argument("--t0", type=int, default=2)
    p.add_argument("--t1", type=int, default=8)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("eval", help="pred + gt instance maps -> metrics JSON on stdout")
    p.add_argument("pred", help="predicted P5 instance map")
    p.add_argument("gt", help="ground-truth P5 instance map")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "getconv-check",
        help="run the isomorphism probe and Jacobian checks; nonzero exit on failure",
    )
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--points", type=int, default=5)
    p.set_defaults(func=_cmd_getconv_check)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
