import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from flowseg import evaluate, gcm, gt_displacement, read_field, read_map, synth, write_field, write_map
from flowseg.checks import JACOBIAN_OPS
from flowseg.cli import _build_parser, cli
from oracles import components8


def test_synth_writes_readable_map(tmp_path):
    out = tmp_path / "labels.pgm"
    assert cli(["synth", "two-squares-separated", str(out), "--height", "32", "--width", "32"]) == 0
    labels = read_map(out)
    assert labels.shape == (32, 32)
    assert set(np.unique(labels)) == {0, 1, 2}


def test_gen_df_matches_library(tmp_path):
    labels_path = tmp_path / "labels.pgm"
    field_path = tmp_path / "field.df"
    cli(["synth", "two-blobs-adherent", str(labels_path), "--height", "24", "--width", "24"])
    assert cli(["gen-df", str(labels_path), str(field_path), "--radius", "3", "--iters", "16"]) == 0
    want = gt_displacement(read_map(labels_path), radius=3, iters=16)
    got = read_field(field_path)
    np.testing.assert_array_equal(got, want)


def test_cli_round_trip_matches_library(tmp_path):
    # a field file below float64 precision changes 310 pixels of this map
    labels_path = tmp_path / "labels.pgm"
    field_path = tmp_path / "field.df"
    out_path = tmp_path / "ids.pgm"
    synth_args = ["grid-of-9-instances", str(labels_path), "--height", "31", "--width", "31"]
    assert cli(["synth", *synth_args]) == 0
    assert cli(["gen-df", str(labels_path), str(field_path)]) == 0
    assert cli(["cluster", str(labels_path), str(field_path), str(out_path)]) == 0
    labels = read_map(labels_path)
    np.testing.assert_array_equal(read_map(out_path), gcm(gt_displacement(labels), labels))


def test_cluster_zero_field_gives_components(tmp_path):
    rng = np.random.default_rng(0)
    energy = (rng.random((12, 14)) < 0.35).astype(np.int64)
    energy_path = tmp_path / "energy.pgm"
    field_path = tmp_path / "zero.df"
    out_path = tmp_path / "ids.pgm"
    write_map(energy_path, energy)
    write_field(field_path, np.zeros((12, 14, 2)))
    assert cli(["cluster", str(energy_path), str(field_path), str(out_path)]) == 0
    np.testing.assert_array_equal(read_map(out_path), components8(energy))


def test_end_to_end_pipeline(tmp_path, capsys):
    labels_path = tmp_path / "labels.pgm"
    energy_path = tmp_path / "energy.pgm"
    field_path = tmp_path / "field.df"
    pred_path = tmp_path / "pred.pgm"
    assert cli(["synth", "two-blobs-adherent", str(labels_path), "--height", "32", "--width", "32"]) == 0
    labels = read_map(labels_path)
    write_map(energy_path, (labels > 0).astype(np.int64))
    assert cli(["gen-df", str(labels_path), str(field_path)]) == 0
    assert cli(["cluster", str(energy_path), str(field_path), str(pred_path)]) == 0
    pred = read_map(pred_path)
    assert len(np.unique(pred[pred > 0])) == 2
    capsys.readouterr()
    assert cli(["eval", str(pred_path), str(labels_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["obj_f1"] == 1.0
    assert record["obj_dice"] == 1.0
    assert record["obj_hd"] == 0.0


def test_eval_identical_maps(tmp_path, capsys):
    path = tmp_path / "m.pgm"
    labels = synth("grid-of-4-instances", (24, 24))
    write_map(path, labels)
    assert cli(["eval", str(path), str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["obj_f1"], record["obj_dice"], record["obj_hd"]) == (1.0, 1.0, 0.0)
    assert len(record["per_object"]) == 4


def test_eval_two_different_maps_matches_library(tmp_path, capsys):
    # a zero field clusters the touching blobs into one instance, so scoring it
    # against the labels measures boundaries and Hausdorff distances
    labels_path = tmp_path / "labels.pgm"
    energy_path = tmp_path / "energy.pgm"
    field_path = tmp_path / "zero.df"
    pred_path = tmp_path / "pred.pgm"
    assert cli(["synth", "two-blobs-adherent", str(labels_path), "--height", "32", "--width", "32"]) == 0
    labels = read_map(labels_path)
    write_map(energy_path, (labels > 0).astype(np.int64))
    write_field(field_path, np.zeros((32, 32, 2)))
    assert cli(["cluster", str(energy_path), str(field_path), str(pred_path)]) == 0
    capsys.readouterr()
    assert cli(["eval", str(pred_path), str(labels_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == evaluate(read_map(pred_path), labels)
    assert record["obj_hd"] > 0.0


def test_usage_error_exits_two(capsys):
    assert cli([]) == 2
    assert cli(["cluster"]) == 2
    capsys.readouterr()


def test_missing_file_exits_one(tmp_path, capsys):
    assert cli(["eval", str(tmp_path / "nope.pgm"), str(tmp_path / "nope.pgm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_fixture_name_exits_one(tmp_path, capsys):
    assert cli(["synth", "not-a-fixture", str(tmp_path / "x.pgm")]) == 1
    assert "unknown fixture" in capsys.readouterr().err


def test_huge_tile_count_exits_one_without_traceback(tmp_path, capsys):
    name = "grid-of-99999999999999999999-instances"
    assert cli(["synth", name, str(tmp_path / "g.pgm")]) == 1
    err = capsys.readouterr().err
    assert "too small" in err and "Traceback" not in err


def test_more_ids_than_a_map_holds_exits_one(tmp_path, capsys):
    energy = np.zeros((512, 512), dtype=np.int64)
    energy[::2, ::2] = 1  # 65536 isolated pixels, one id each under a zero field
    energy_path = tmp_path / "energy.pgm"
    field_path = tmp_path / "zero.df"
    write_map(energy_path, energy)
    write_field(field_path, np.zeros((512, 512, 2)))
    assert cli(["cluster", str(energy_path), str(field_path), str(tmp_path / "ids.pgm")]) == 1
    assert "65535" in capsys.readouterr().err


def test_mismatched_field_and_energy(tmp_path, capsys):
    energy_path = tmp_path / "e.pgm"
    field_path = tmp_path / "f.df"
    write_map(energy_path, np.ones((8, 8), dtype=np.int64))
    write_field(field_path, np.zeros((4, 4, 2)))
    assert cli(["cluster", str(energy_path), str(field_path), str(tmp_path / "o.pgm")]) == 1
    assert "does not match" in capsys.readouterr().err


def test_getconv_check_passes(capsys):
    assert cli(["getconv-check", "--seeds", "8", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "isomorphism probe" in out
    assert "jacobian getblock" in out
    assert out.strip().endswith("ok")


@pytest.mark.parametrize("flag", ["--seeds", "--points"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_getconv_check_rejects_a_count_below_one(flag, count, capsys):
    # with no seed or no point the command used to print "ok" and exit 0
    assert cli(["getconv-check", flag, count]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be >= 1" in captured.err
    assert "ok" not in captured.out


def test_getconv_check_checks_the_ops_of_criterion_6(capsys):
    # CI's getconv-check stands for acceptance criterion 6: same ops, one line each
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    criterion = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "test_criterion_6_jacobian_checks"
    )
    loop = next(node for node in ast.walk(criterion) if isinstance(node, ast.For))
    assert JACOBIAN_OPS == ast.literal_eval(loop.iter) == ("diffusivity", "getconv", "getblock")
    assert cli(["getconv-check", "--seeds", "4", "--points", "1"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("jacobian ")]
    assert [line.split(":")[0] for line in lines] == [f"jacobian {op}" for op in JACOBIAN_OPS]


def test_cli_is_deterministic(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for out in (a, b):
        cli(["synth", "random-voronoi", str(out), "--seed", "3"])
    assert a.read_bytes() == b.read_bytes()


# the CLI and the library give the same map for the same field only while
# every option the CLI leaves out has the library's default
@pytest.mark.parametrize(
    "argv, library",
    [(["cluster", "e.pgm", "f.df", "o.pgm"], gcm), (["gen-df", "l.pgm", "f.df"], gt_displacement)],
    ids=["cluster", "gen-df"],
)
def test_cli_defaults_are_the_library_defaults(argv, library):
    args = vars(_build_parser().parse_args(argv))
    defaults = {
        name: p.default
        for name, p in inspect.signature(library).parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    assert len(defaults) == 2
    assert {name: args[name] for name in defaults} == defaults
