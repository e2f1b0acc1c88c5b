"""End-to-end command-line behavior, run in process through main()."""

import argparse
import copy
import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patchmem import cli, verification
from patchmem.cli import build_parser, main
from patchmem.errors import (
    ParameterError,
    PartitionError,
    PatchmemError,
    PhantomSpecError,
    SchedulingError,
)
from patchmem.evalkit import BenchConfig, ComplexityReport, default_bench_grid
from patchmem.featurizer import EncoderConfig
from patchmem.grids import MAGIC, FeatureGrid, LabelVolume, load_container, save_container
from patchmem.matcher import TopKIndex, plmm_forward, topk_select
from patchmem.patcher import scatter_add
from patchmem.propagator import PropagationConfig, run_4d


def echoed_json(capsys):
    """Parse the effective-config JSON block that every command prints."""
    out = capsys.readouterr().out
    lines = out.splitlines()
    start = lines.index("{")
    end = lines.index("}", start)
    return json.loads("\n".join(lines[start:end + 1])), out


def make_phantom(tmp_path, capsys=None, **extra_flags):
    tmp_path.mkdir(parents=True, exist_ok=True)
    vol = tmp_path / "vol.cgrid"
    truth = tmp_path / "truth.cgrid"
    argv = ["phantom", "--out-volume", str(vol), "--out-truth", str(truth),
            "--z", "3", "--t", "2", "--height", "48", "--width", "48",
            "--lv-radius", "8", "--myo-thickness", "3", "--rv-offset", "12",
            "--noise", "0.01", "--distractor", "off"]
    for flag, value in extra_flags.items():
        argv += [f"--{flag}", str(value)]
    assert main(argv) == 0
    if capsys is not None:
        capsys.readouterr()
    return vol, truth


SMALL_SPEC = {"z_count": 3, "t_count": 2, "height": 48, "width": 48,
              "lv_radius_px": 8.0, "myo_thickness_px": 3.0, "rv_offset_px": 12.0,
              "spacing_mm": [1.3, 1.3], "distractor": False, "seed": 1}


class TestPhantomCommand:
    def test_writes_both_containers(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path)
        payload, out = echoed_json(capsys)
        assert payload["command"] == "phantom"
        assert payload["spec"]["z_count"] == 3
        assert "phantom written: Z=3 T=2 H=48 W=48" in out
        assert load_container(vol).intensities.shape == (3, 2, 48, 48)
        assert load_container(truth).labels.shape == (3, 2, 48, 48)

    def test_byte_deterministic(self, tmp_path, capsys):
        a_vol, a_truth = make_phantom(tmp_path / "a", capsys)
        b_vol, b_truth = make_phantom(tmp_path / "b", capsys)
        assert a_vol.read_bytes() == b_vol.read_bytes()
        assert a_truth.read_bytes() == b_truth.read_bytes()

    def test_flags_override_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        rc = main(["phantom", "--out-volume", str(tmp_path / "v.cgrid"),
                   "--out-truth", str(tmp_path / "t.cgrid"),
                   "--spec-json", str(spec), "--seed", "9"])
        assert rc == 0
        payload, _ = echoed_json(capsys)
        assert payload["spec"]["seed"] == 9
        assert payload["spec"]["height"] == 48

    def test_unknown_spec_key(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"zz_count": 5}))
        rc = main(["phantom", "--out-volume", str(tmp_path / "v.cgrid"),
                   "--out-truth", str(tmp_path / "t.cgrid"),
                   "--spec-json", str(spec)])
        assert rc == 1

    def test_geometry_that_does_not_fit(self, tmp_path, capsys):
        rc = main(["phantom", "--out-volume", str(tmp_path / "v.cgrid"),
                   "--out-truth", str(tmp_path / "t.cgrid"),
                   "--height", "48", "--width", "48", "--lv-radius", "40"])
        assert rc == 1
        # the spec refuses it when it is built, before anything is echoed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: phantom geometry does not fit inside the frame "
                                "with a 2 px margin\n")

    def test_missing_spec_file(self, tmp_path):
        rc = main(["phantom", "--out-volume", str(tmp_path / "v.cgrid"),
                   "--out-truth", str(tmp_path / "t.cgrid"),
                   "--spec-json", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["phantom", "--out-volume", "v", "--out-truth", "t",
                  "--does-not-exist", "1"])
        assert err.value.code == 1

    @pytest.mark.parametrize("entry,message", [
        ({"spacing_mm": ["a", 1.0]}, "spacing"),
        ({"spacing_mm": [None, 1.0]}, "spacing"),
        ({"spacing_mm": [[1], 1.0]}, "spacing"),
        ({"spacing_mm": [10 ** 400, 1.0]}, "spacing"),
        ({"spacing_mm": [True, 1.0]}, "spacing"),
        ({"spacing_mm": [1.0]}, "spacing"),
        ({"spacing_mm": 5}, "spacing"),
        ({"z_count": "a"}, "z_count"),
        ({"z_count": 3.0}, "z_count"),
        ({"seed": "x"}, "seed"),
        ({"seed": True}, "seed"),
        ({"lv_radius_px": "8"}, "lv_radius_px"),
        ({"lv_radius_px": float("nan")}, "lv_radius_px"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
        ({"rv_offset_px": 10 ** 400}, "rv_offset_px"),
        ({"distractor": "no"}, "distractor"),
    ])
    def test_spec_values_are_type_checked(self, tmp_path, capsys, entry, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SMALL_SPEC, **entry}))
        rc = main(["phantom", "--out-volume", str(tmp_path / "v.cgrid"),
                   "--out-truth", str(tmp_path / "t.cgrid"),
                   "--spec-json", str(spec)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "v.cgrid").exists()


PROPAGATE_FLAGS = ["--scales", "4", "--patch", "6", "--k", "2",
                   "--working-side", "96"]


def save_seed(tmp_path, truth_path):
    truth = load_container(truth_path)
    seed = tmp_path / "seed.cgrid"
    from patchmem.grids import save_container
    save_container(truth.labels[truth.z_count // 2, 0], seed)
    return seed


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    """A 3 x 2 x 48 x 48 phantom volume and the seed mask at its anchor."""
    path = tmp_path_factory.mktemp("study")
    vol, truth = make_phantom(path)
    return vol, save_seed(path, truth)


@pytest.fixture
def no_propagation(monkeypatch):
    """Replace cli.run_4d by an all-background result, so that a test runs
    config handling only and allocates nothing a config asks for."""
    def fake_run_4d(volume, seed, cfg):
        assert isinstance(cfg, PropagationConfig)
        labels = np.zeros(volume.intensities.shape, dtype=np.uint8)
        return SimpleNamespace(masks=LabelVolume(labels), provenance={},
                               work_dims=(volume.height, volume.width))

    monkeypatch.setattr(cli, "run_4d", fake_run_4d)


class TestPropagateCommand:
    def test_full_run_with_provenance(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        masks = tmp_path / "masks.cgrid"
        prov = tmp_path / "prov.json"
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(masks), "--out-provenance", str(prov),
                   *PROPAGATE_FLAGS])
        assert rc == 0
        payload, out = echoed_json(capsys)
        assert payload["config"]["z0"] == 1
        assert "threads" not in payload
        assert "segmented 6 frames (3 slices x 2 phases)" in out
        got = load_container(masks)
        assert got.labels.shape == (3, 2, 48, 48)
        prov_payload = json.loads(prov.read_text())
        assert prov_payload["frames"]["1,0"] == []
        assert prov_payload["work_dims"] == [96, 96]
        assert len(prov_payload["order"]) == 6

    def test_echoed_config_reproduces_masks(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        masks_a = tmp_path / "a.cgrid"
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(masks_a), *PROPAGATE_FLAGS])
        assert rc == 0
        payload, _ = echoed_json(capsys)
        assert payload["config"]["encoder"] == {"key_channels": 32}
        assert "t0" not in payload["config"]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload["config"]))
        masks_b = tmp_path / "b.cgrid"
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(masks_b), "--config", str(cfg_file)])
        assert rc == 0
        assert masks_a.read_bytes() == masks_b.read_bytes()

    def test_wrong_volume_container(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        rc = main(["propagate", "--volume", str(truth),
                   "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"), *PROPAGATE_FLAGS])
        assert rc == 2

    def test_truncated_volume(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        clipped = tmp_path / "clipped.cgrid"
        clipped.write_bytes(vol.read_bytes()[:200])
        rc = main(["propagate", "--volume", str(clipped),
                   "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"), *PROPAGATE_FLAGS])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"patch_size": 6}))
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"),
                   "--config", str(cfg_file)])
        assert rc == 1

    def test_encoder_mode_key_rejected(self, tmp_path, capsys):
        # features come only from the handcrafted encoder
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"encoder": {"mode": "external-file"}}))
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"),
                   "--config", str(cfg_file), *PROPAGATE_FLAGS])
        assert rc == 1
        assert "unknown encoder config keys: mode" in capsys.readouterr().err

    def test_inadmissible_working_side(self, tmp_path, capsys):
        vol, truth = make_phantom(tmp_path, capsys)
        seed = save_seed(tmp_path, truth)
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"),
                   "--scales", "4", "--working-side", "100"])
        assert rc == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--basal-frac", "1.5"], ["--working-side", "2112"]],
                             ids=["basal-frac", "side-over-the-bound"])
    def test_setting_refused_before_the_echo(self, tmp_path, capsys, small_study,
                                             monkeypatch, flags):
        monkeypatch.setattr(cli, "run_4d", None)
        vol, seed = small_study
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"), *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_threads_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["propagate", "--volume", "v", "--seed-mask", "s",
                  "--out-masks", str(tmp_path / "m.cgrid"), "--threads", "1"])
        assert err.value.code == 1

    def test_t0_takes_only_the_anchor_phase(self, tmp_path, small_study, no_propagation):
        vol, seed = small_study
        argv = ["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                "--out-masks", str(tmp_path / "m.cgrid")]
        assert main(argv + ["--t0", "0"]) == 0
        with pytest.raises(SystemExit) as err:
            main(argv + ["--t0", "1"])
        assert err.value.code == 1

    def test_scales_flag_must_list_integers(self, tmp_path, capsys, small_study):
        vol, seed = small_study
        with pytest.raises(SystemExit) as err:
            main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                  "--out-masks", str(tmp_path / "m.cgrid"), "--scales", "3,a"])
        assert err.value.code == 1
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,flags", [(entry, []) for entry in [
        {"k": "4"},
        {"k": True},
        {"scales": 3},
        {"working_side": "288"},
        {"region_fractions": [0.3]},
        {"apex_t_max": 2.5},
        {"patch": 6.0},
        {"encoder": {"key_channels": "a"}},
        {"encoder": {"key_channels": 2.5}},
        {"encoder": {"blur_sigmas": 2}},
        {"encoder": {"projection_seed": -1}},
        {"encoder": {"include_coords": "no"}},
    ]] + [({"region_fractions": [0.3]}, ["--apex-frac", "0.3"])])
    def test_config_values_are_checked(self, tmp_path, capsys, small_study, entry, flags):
        vol, seed = small_study
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(entry))
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"), "--config", str(cfg_file),
                   *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.cgrid").exists()


# propagate options that name files rather than settings
PROPAGATE_FILE_FLAGS = {"--volume", "--seed-mask", "--out-masks", "--out-provenance",
                        "--config"}
# the anchor is always phase 0, so --t0 has a single value and no effect;
# it is kept because callers pass --t0 0
PROPAGATE_EXEMPT_FLAGS = {"--t0"}
# a value other than the default for every flag that sets the config
PROPAGATE_SETTING_FLAGS = {
    "--matcher": "dense", "--scales": "3", "--patch": "4", "--k": "3",
    "--z0": "0", "--apex-t-max": "4", "--continuity": "temporal-only",
    "--basal-frac": "0.25", "--apex-frac": "0.25", "--working-side": "144",
}


class TestPropagateFlags:
    """No propagate flag is parsed and then dropped: each one names a file,
    or changes the echoed config."""

    def test_every_flag_is_classified(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = {opt for action in sub.choices["propagate"]._actions
                 for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        assert flags == (PROPAGATE_FILE_FLAGS | PROPAGATE_EXEMPT_FLAGS
                         | set(PROPAGATE_SETTING_FLAGS))

    @pytest.mark.parametrize("flag", sorted(PROPAGATE_SETTING_FLAGS))
    def test_setting_flag_changes_echoed_config(self, tmp_path, capsys, small_study,
                                                no_propagation, flag):
        vol, seed = small_study
        argv = ["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                "--out-masks", str(tmp_path / "m.cgrid")]
        assert main(argv) == 0
        default, _ = echoed_json(capsys)
        assert main(argv + [flag, PROPAGATE_SETTING_FLAGS[flag]]) == 0
        changed, _ = echoed_json(capsys)
        assert changed["config"] != default["config"]


class TestEvalCommand:
    def test_reports_sixteen_rows(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        out_csv = tmp_path / "metrics.csv"
        rc = main(["eval", "--pred", str(truth), "--truth", str(truth),
                   "--out-csv", str(out_csv), "--threads", "1",
                   "--method", "dense"])
        assert rc == 0
        _, out = echoed_json(capsys)
        assert out.count("1.0000") >= 16
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 17
        assert lines[1].startswith("dense,basal,LV,1.000000")

    def test_mismatched_volumes(self, tmp_path, capsys):
        _, truth_a = make_phantom(tmp_path / "a", capsys)
        _, truth_b = make_phantom(tmp_path / "b", capsys, z="5")
        rc = main(["eval", "--pred", str(truth_a), "--truth", str(truth_b),
                   "--threads", "1"])
        assert rc == 2

    def test_shape_checked_before_slice_partition(self, tmp_path, capsys):
        # two slices leave no middle region, but the shapes disagree first
        pred_path, truth_path = tmp_path / "p.cgrid", tmp_path / "t.cgrid"
        save_container(LabelVolume(np.zeros((3, 2, 8, 8), dtype=np.uint8)), pred_path)
        save_container(LabelVolume(np.zeros((2, 2, 8, 8), dtype=np.uint8)), truth_path)
        rc = main(["eval", "--pred", str(pred_path), "--truth", str(truth_path),
                   "--threads", "1"])
        assert rc == 2
        assert "disagree" in capsys.readouterr().err

    def test_spacing_mismatch(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        labels = load_container(truth).labels
        pred_path, truth_path = tmp_path / "p.cgrid", tmp_path / "t.cgrid"
        save_container(LabelVolume(labels, spacing_mm=(1.0, 1.0)), pred_path)
        save_container(LabelVolume(labels, spacing_mm=(2.0, 2.0)), truth_path)
        rc = main(["eval", "--pred", str(pred_path), "--truth", str(truth_path),
                   "--threads", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "spacing" in captured.err
        assert captured.out == ""

    def test_partition_without_middle_fails_before_the_echo(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)  # Z = 3
        rc = main(["eval", "--pred", str(truth), "--truth", str(truth),
                   "--basal-frac", "0.45", "--apex-frac", "0.45"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: fractions (0.45, 0.45) leave no middle")
        assert captured.err.count("\n") == 1

    def test_threads_takes_only_one(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        argv = ["eval", "--pred", str(truth), "--truth", str(truth)]
        assert main(argv + ["--threads", "1"]) == 0
        payload, _ = echoed_json(capsys)
        assert "threads" not in payload
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", "2"])
        assert err.value.code == 1

    @pytest.mark.parametrize("flags", [
        ["--basal-frac", "nan"], ["--apex-frac", "inf"], ["--basal-frac=-inf"],
        ["--basal-frac", "0"], ["--apex-frac", "1"], ["--basal-frac", "1.5"],
    ], ids=["basal-nan", "apex-inf", "basal-minus-inf", "basal-zero", "apex-one",
            "basal-above-one"])
    def test_bad_fractions_fail_before_the_echo(self, tmp_path, capsys, flags):
        _, truth = make_phantom(tmp_path, capsys)
        rc = main(["eval", "--pred", str(truth), "--truth", str(truth),
                   "--out-csv", str(tmp_path / "m.csv"), *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "region fractions" in captured.err
        assert not (tmp_path / "m.csv").exists()

    def test_unwritable_csv_fails_before_loading(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        out_csv = tmp_path / "absent" / "m.csv"
        rc = main(["eval", "--pred", str(truth), "--truth", str(truth),
                   "--out-csv", str(out_csv)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert str(out_csv) in captured.err
        # the output is checked first: a missing prediction is not reached
        rc = main(["eval", "--pred", str(tmp_path / "absent.cgrid"), "--truth", str(truth),
                   "--out-csv", str(out_csv)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert str(out_csv) in captured.err


def write_cgrid(path, header, payload):
    """Write a CGRID file by hand, bypassing save_container's checks."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)


LABEL_HEADER = {"dims": [3, 2, 48, 48], "order": "ZTYX", "dtype": "u8",
                "spacing_mm": [1.3, 1.3]}


class TestMalformedHeaders:
    """Hand-written headers that must end in exit code 2, not a traceback."""

    @pytest.mark.parametrize("change", [
        {"spacing_mm": [float("nan"), 1.0]},
        {"spacing_mm": [1.0, float("inf")]},
        {"spacing_mm": [True, 1.0]},
        {"spacing_mm": [10 ** 400, 1.0]},
        {"dims": [True, 2, 48, 48]},
        {"dims": [3, 2, 48, 48.0]},
        {"dtype": ["u8"]},
    ], ids=["nan-spacing", "inf-spacing", "bool-spacing", "huge-spacing",
            "bool-dims", "float-dims", "list-dtype"])
    def test_eval_exits_two(self, tmp_path, capsys, change):
        _, truth = make_phantom(tmp_path, capsys)
        header = dict(LABEL_HEADER, **change)
        z, t, h, w = (int(d) for d in header["dims"])
        bad = tmp_path / "bad.cgrid"
        write_cgrid(bad, header, bytes(z * t * h * w))
        rc = main(["eval", "--pred", str(bad), "--truth", str(truth),
                   "--threads", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_header_not_an_object(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        bad = tmp_path / "bad.cgrid"
        write_cgrid(bad, ["dims", "order", "dtype", "spacing_mm"], b"")
        rc = main(["eval", "--pred", str(truth), "--truth", str(bad),
                   "--threads", "1"])
        assert rc == 2

    def test_well_formed_header_is_accepted(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        good = tmp_path / "good.cgrid"
        write_cgrid(good, LABEL_HEADER, bytes(3 * 2 * 48 * 48))
        rc = main(["eval", "--pred", str(good), "--truth", str(truth),
                   "--threads", "1"])
        assert rc == 0

    @pytest.mark.parametrize("blob", [
        b"[" * 200000 + b"]" * 200000,
        b'{"dims": [' + b"9" * 5000 + b"]}",
    ], ids=["deep-nesting", "long-integer"])
    def test_unparseable_header(self, tmp_path, capsys, blob):
        _, truth = make_phantom(tmp_path, capsys)
        bad = tmp_path / "bad.cgrid"
        bad.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        rc = main(["eval", "--pred", str(bad), "--truth", str(truth),
                   "--threads", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRemovedKinds:
    """Feature grids (CYX f32) and real maps (YX f32) are no CGRID kind any
    more: a file of either kind exits 2 wherever a command reads one."""

    @pytest.mark.parametrize("kind", [("CYX", [2, 48, 48]), ("YX", [48, 48])],
                             ids=["cyx-f32", "yx-f32"])
    @pytest.mark.parametrize("role", ["volume", "seed", "eval"])
    def test_exits_two(self, tmp_path, capsys, small_study, no_propagation, kind, role):
        vol, seed = small_study
        order, dims = kind
        bad = tmp_path / "bad.cgrid"
        write_cgrid(bad, {"dims": dims, "order": order, "dtype": "f32",
                          "spacing_mm": [1.0, 1.0]}, bytes(4 * int(np.prod(dims))))
        if role == "eval":
            truth = tmp_path / "truth.cgrid"
            save_container(LabelVolume(np.zeros((3, 2, 48, 48), dtype=np.uint8)), truth)
            argv = ["eval", "--pred", str(bad), "--truth", str(truth), "--threads", "1"]
        else:
            argv = ["propagate", "--volume", str(bad if role == "volume" else vol),
                    "--seed-mask", str(bad if role == "seed" else seed),
                    "--out-masks", str(tmp_path / "m.cgrid")]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestPathArguments:
    """A directory where a command expects a file ends in one error line and
    exit 1, as a missing file does."""

    @pytest.mark.parametrize("argv", [
        lambda d, vol, seed, labels: ["propagate", "--volume", vol, "--seed-mask", seed,
                                      "--out-masks", f"{d}/m.cgrid", "--config", d],
        lambda d, vol, seed, labels: ["propagate", "--volume", d, "--seed-mask", seed,
                                      "--out-masks", f"{d}/m.cgrid"],
        lambda d, vol, seed, labels: ["propagate", "--volume", vol, "--seed-mask", d,
                                      "--out-masks", f"{d}/m.cgrid"],
        lambda d, vol, seed, labels: ["propagate", "--volume", vol, "--seed-mask", seed,
                                      "--out-masks", f"{d}/"],
        lambda d, vol, seed, labels: ["propagate", "--volume", vol, "--seed-mask", seed,
                                      "--out-masks", f"{d}/m.cgrid", "--out-provenance", d],
        lambda d, vol, seed, labels: ["eval", "--pred", labels, "--truth", labels,
                                      "--threads", "1", "--out-csv", d],
        lambda d, vol, seed, labels: ["eval", "--pred", d, "--truth", labels,
                                      "--threads", "1"],
        lambda d, vol, seed, labels: ["bench", "--grid-json", d],
        lambda d, vol, seed, labels: ["phantom", "--out-volume", d,
                                      "--out-truth", f"{d}/t.cgrid", "--z", "3", "--t", "2",
                                      "--height", "48", "--width", "48",
                                      "--lv-radius", "8", "--myo-thickness", "3",
                                      "--rv-offset", "12"],
        lambda d, vol, seed, labels: ["propagate", "--volume", f"{d}/absent.cgrid",
                                      "--seed-mask", seed, "--out-masks", f"{d}/m.cgrid"],
    ], ids=["propagate-config", "propagate-volume", "propagate-seed", "propagate-out-masks",
            "propagate-out-provenance", "eval-out-csv", "eval-pred", "bench-grid-json",
            "phantom-out-volume", "missing-file"])
    def test_exits_one(self, tmp_path, capsys, small_study, no_propagation, argv):
        vol, seed = small_study
        labels = tmp_path / "labels.cgrid"
        save_container(LabelVolume(np.zeros((3, 2, 8, 8), dtype=np.uint8)), labels)
        rc = main(argv(str(tmp_path), str(vol), str(seed), str(labels)))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tmp_path) in err[0]


class TestOversizedConfig:
    """A configuration too large to run is refused before anything is
    allocated, with one error line and exit 1; a MemoryError that still
    happens ends the same way."""

    @pytest.mark.parametrize("extra,config", [
        (["--patch", "1000000"], None),
        (["--patch", "6", "--working-side", "2064"], None),
        ([], {"encoder": {"key_channels": 100_000_000}}),
        ([], {"working_side": 10 ** 18}),
    ], ids=["patch", "working-side", "key-channels", "working-side-in-config"])
    def test_exits_one(self, tmp_path, capsys, small_study, extra, config):
        vol, seed = small_study
        argv = ["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                "--out-masks", str(tmp_path / "m.cgrid"), *extra]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_memory_error_exits_one(self, tmp_path, capsys, small_study, monkeypatch):
        def out_of_memory(volume, seed, cfg):
            raise MemoryError("Unable to allocate 1.86 TiB for an array")

        monkeypatch.setattr(cli, "run_4d", out_of_memory)
        vol, seed = small_study
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: out of memory: Unable to allocate 1.86 TiB for an array"]


class TestMalformedJsonFiles:
    """A JSON file that Python's parser cannot take ends in one error line
    and exit 1, whichever flag names it."""

    @pytest.mark.parametrize("blob", [
        b'{"seed": ' + b"9" * 5000 + b"}",
        b"[" * 100000,
        b'{"seed": 1}\xff',
    ], ids=["long-integer", "deep-nesting", "bad-utf8"])
    @pytest.mark.parametrize("argv", [
        lambda d, vol, seed, path: ["propagate", "--volume", vol, "--seed-mask", seed,
                                    "--out-masks", f"{d}/m.cgrid", "--config", path],
        lambda d, vol, seed, path: ["phantom", "--out-volume", f"{d}/v.cgrid",
                                    "--out-truth", f"{d}/t.cgrid", "--spec-json", path],
        lambda d, vol, seed, path: ["bench", "--grid-json", path],
    ], ids=["propagate-config", "phantom-spec-json", "bench-grid-json"])
    def test_exits_one(self, tmp_path, capsys, small_study, no_propagation, argv, blob):
        vol, seed = small_study
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        rc = main(argv(str(tmp_path), str(vol), str(seed), str(path)))
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]


class TestOutputsCheckedFirst:
    """propagate finds an output it cannot write before it matches the study,
    with the error line and exit 1 that writing it would give."""

    @pytest.fixture
    def no_matching(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_4d was called")

        monkeypatch.setattr(cli, "run_4d", fail)

    @pytest.mark.parametrize("flag", ["--out-masks", "--out-provenance"])
    def test_directory_output_exits_one(self, tmp_path, capsys, small_study, no_matching,
                                        flag):
        vol, seed = small_study
        outputs = {"--out-masks": str(tmp_path / "m.cgrid"),
                   "--out-provenance": str(tmp_path / "p.json"), flag: str(tmp_path)}
        argv = ["propagate", "--volume", str(vol), "--seed-mask", str(seed)]
        for item in outputs.items():
            argv += item
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: Is a directory: {tmp_path}"]
        # the writable output was neither written nor left behind
        assert list(tmp_path.iterdir()) == []

    def test_check_leaves_existing_and_absent_outputs(self, tmp_path, small_study,
                                                      monkeypatch):
        def data_error(*args, **kwargs):
            raise SchedulingError("no match")

        monkeypatch.setattr(cli, "run_4d", data_error)
        vol, seed = small_study
        masks = tmp_path / "m.cgrid"
        masks.write_bytes(b"earlier")
        assert main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                     "--out-masks", str(masks),
                     "--out-provenance", str(tmp_path / "p.json")]) == 2
        assert masks.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["m.cgrid"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the package errors that name a usage error, with everything derived from them
USAGE_ERRORS = (ParameterError, PhantomSpecError, PartitionError)


@pytest.mark.parametrize("error", [PatchmemError, *_subclasses(PatchmemError)],
                         ids=lambda cls: cls.__name__)
def test_package_error_exits_with_its_code(monkeypatch, capsys, error):
    def refuse(configs, reps):
        raise error("refused")

    monkeypatch.setattr(cli, "check_complexity", refuse)
    assert error.exit_code == (1 if issubclass(error, USAGE_ERRORS) else 2)
    assert main(["bench", "--reps", "1"]) == error.exit_code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: refused"]
    assert captured.out == ""


class TestParserReuse:
    """main builds its parser once and looks its handler up on each call."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_replaced_handler_is_the_one_that_runs(self, tmp_path, capsys, monkeypatch):
        _, truth = make_phantom(tmp_path, capsys)  # main has run once
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.pred) or 0)
        assert main(["eval", "--pred", str(truth), "--truth", str(truth)]) == 0
        assert seen == [str(truth)]
        assert capsys.readouterr().out == ""

    def test_usage_error_does_not_change_the_next_call(self, tmp_path, capsys):
        _, truth = make_phantom(tmp_path, capsys)
        argv = ["eval", "--pred", str(truth), "--truth", str(truth)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # one refusal by argparse and one by the command, both exit 1
        with pytest.raises(SystemExit) as err:
            main(argv + ["--method", "other", "--threads", "2"])
        assert err.value.code == 1
        assert main(argv + ["--method", "other", "--basal-frac", "1.5"]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert '"method": "plmm"' in first


@pytest.fixture(scope="module")
def perfbench_run():
    """perfbench/run.py as a module, with the environment and sys.path it
    changes on import restored."""
    here = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(here), *sys.path]):
        spec.loader.exec_module(module)
    return module


class TestBenchmarkCommands:
    """The exact argument lists the benchmark runs, on a tiny phantom: a CLI
    change that drops one of their flags (say ``--t0`` or ``eval
    --threads``) fails here rather than in every benchmark run."""

    @pytest.mark.parametrize("matcher", ["plmm", "dense"])
    def test_propagate_and_eval_argv_run(self, tmp_path, capsys, perfbench_run, matcher):
        wl = perfbench_run.Workload(
            dict(z_count=3, t_count=2, height=48, width=48, lv_radius_px=8.0,
                 myo_thickness_px=3.0, rv_offset_px=12.0), matcher, 96)
        inputs = perfbench_run.write_inputs(tmp_path, wl, seed=1)
        propagate = perfbench_run.propagate_argv(inputs, wl)
        evaluate = perfbench_run.eval_argv(inputs)
        assert "--t0" in propagate and "--threads" in evaluate
        assert main(propagate) == 0
        assert main(evaluate) == 0
        assert capsys.readouterr().err == ""
        masks = load_container(inputs.path("masks.cgrid"))
        assert np.array_equal(masks.labels[inputs.z0, 0], inputs.seed_mask)
        assert (tmp_path / "eval.csv").exists() and (tmp_path / "provenance.json").exists()

    @pytest.mark.parametrize("name", ["paper-288", "paper-288-dense", "wide-576"])
    def test_traced_study_passes_its_checks(self, tmp_path, perfbench_run, name):
        # a traced study checks the closed-form call and pair counts; a
        # mismatch ends the run "incorrect" with exit 0, so it is caught here
        wl = perfbench_run.WORKLOADS[name]
        inputs = perfbench_run.write_inputs(tmp_path, wl, seed=7)
        study = perfbench_run.run_study(inputs, wl, traced=True)
        assert study.problems == []
        assert study.layers is not None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
FUZZ_DIMS = [3, 2, 8, 8]
FUZZ_HEADER = {"dims": FUZZ_DIMS, "order": "ZTYX", "dtype": "u8",
               "spacing_mm": [1.0, 1.0]}
# per key: edge values a loader must reject, odd lists, then any JSON at all
FUZZ_FIELDS = {
    "dims": st.sampled_from([[6, 8, 8], [8, 8], [3, 1, 8, 8], [3, 2, 8, 8.0],
                             [True, 2, 8, 8], [0, 2, 8, 8], [-3, 2, 8, 8],
                             [2 ** 70, 2, 8, 8]])
    | st.lists(st.integers() | st.booleans() | st.floats(), max_size=5)
    | JSON_VALUES,
    "order": st.sampled_from(["CYX", "YX", "XY"]) | JSON_VALUES,
    "dtype": st.sampled_from(["f32", "f64"]) | JSON_VALUES,
    "spacing_mm": st.sampled_from([[1.3, 1.3], [10 ** 400, 1.0], [0.0, 1.0],
                                   [float("nan"), 1.0], [1.0, float("inf")],
                                   [True, 1.0], [1.0]])
    | st.lists(st.integers() | st.floats() | st.booleans(), max_size=3)
    | JSON_VALUES,
    "labels": JSON_VALUES,
}


FUZZ_HEADERS = st.one_of(
    JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    st.binary(max_size=24),
    st.sampled_from([1, 100000]).map(lambda n: b"[" * n + b"]" * n),
    st.sampled_from([4300, 4301]).map(lambda n: b"9" * n))


@st.composite
def cgrid_files(draw):
    """A valid label volume of FUZZ_DIMS with up to three parts broken: a
    header key replaced or removed, the whole header, the header length,
    the magic or the payload."""
    header = dict(FUZZ_HEADER)
    blob = magic = length = None
    payload = bytes(range(4)) * (int(np.prod(FUZZ_DIMS)) // 4)
    parts = st.sampled_from(["key", "key", "header", "length", "magic",
                             "payload"])
    for part in draw(st.lists(parts, max_size=3)):
        if part == "key":
            key = draw(st.sampled_from(sorted(FUZZ_FIELDS)))
            if draw(st.booleans()):
                header[key] = draw(FUZZ_FIELDS[key])
            else:
                header.pop(key, None)
        elif part == "header":
            blob = draw(FUZZ_HEADERS)
        elif part == "length":
            length = draw(st.integers(0, 2 ** 64 - 1))
        elif part == "magic":
            magic = draw(st.binary(max_size=8))
        else:
            # 384 and 1536 bytes fit FUZZ_DIMS as u8 and as f32
            size = draw(st.sampled_from([384, 1536]) | st.integers(0, 4096))
            pattern = draw(st.binary(min_size=1, max_size=8))
            if draw(st.booleans()):
                pattern = bytes(b % 4 for b in pattern)
            payload = (pattern * size)[:size]
    if blob is None:
        blob = json.dumps(header).encode("utf-8")
    if length is None:
        length = len(blob)
    return ((MAGIC if magic is None else magic) + length.to_bytes(8, "little")
            + blob + payload)


class TestLoaderFuzz:
    """Any file at all, given to eval as the prediction or as the truth,
    ends in exit 0 or 2."""

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(blob=cgrid_files())
    def test_eval_exits_zero_or_two(self, tmp_path, blob):
        truth = tmp_path / "truth.cgrid"
        labels = np.arange(np.prod(FUZZ_DIMS)).reshape(FUZZ_DIMS) % 4
        save_container(LabelVolume(labels, spacing_mm=(1.0, 1.0)), truth)
        fuzzed = tmp_path / "fuzzed.cgrid"
        fuzzed.write_bytes(blob)
        for pred, ref in ((fuzzed, truth), (truth, fuzzed)):
            rc = main(["eval", "--pred", str(pred), "--truth", str(ref),
                       "--threads", "1"])
            assert rc in (0, 2)


@st.composite
def fuzzed_json(draw, base, paths):
    """base with up to three of its keys (paths into nested objects) each
    replaced by any JSON value or removed."""
    config = copy.deepcopy(base)
    for path in draw(st.lists(st.sampled_from(paths), max_size=3)):
        node = config
        for name in path[:-1]:
            node = node.get(name) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if draw(st.booleans()):
            node[path[-1]] = draw(JSON_VALUES)
        else:
            node.pop(path[-1], None)
    return config


PROPAGATE_CONFIG = json.loads(json.dumps(dataclasses.asdict(PropagationConfig())))
PROPAGATE_FIELDS = ([(f.name,) for f in dataclasses.fields(PropagationConfig)]
                          + [("encoder", f.name) for f in dataclasses.fields(EncoderConfig)])
BENCH_ENTRY = {"t": 1, "h": 12, "w": 12, "patch": 6, "k": 2, "scales": [4]}
BENCH_FIELDS = [(f.name,) for f in dataclasses.fields(BenchConfig)]
CONFIG_FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture,
                                              HealthCheck.too_slow])


class TestConfigFuzz:
    """Any propagate, encoder or bench-grid value ends in exit 0 or 1, never a
    traceback. The matching itself is stubbed out, so sizes a config asks for
    are checked but never allocated."""

    @CONFIG_FUZZ
    @given(config=fuzzed_json(PROPAGATE_CONFIG, PROPAGATE_FIELDS))
    def test_propagate_exits_zero_or_one(self, tmp_path, small_study, no_propagation,
                                         config):
        vol, seed = small_study
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        rc = main(["propagate", "--volume", str(vol), "--seed-mask", str(seed),
                   "--out-masks", str(tmp_path / "m.cgrid"), "--config", str(cfg_file)])
        assert rc in (0, 1)

    @CONFIG_FUZZ
    @given(entry=fuzzed_json(BENCH_ENTRY, BENCH_FIELDS))
    def test_bench_exits_zero_or_one(self, tmp_path, monkeypatch, entry):
        monkeypatch.setattr(cli, "check_complexity",
                            lambda configs, reps: ComplexityReport(rows=[]))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([entry]))
        assert main(["bench", "--grid-json", str(grid), "--reps", "1"]) in (0, 1)


class TestBenchCommand:
    def test_tiny_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"t": 1, "h": 12, "w": 12, "patch": 6, "k": 2},
             {"t": 1, "h": 12, "w": 12, "patch": 4, "k": 1,
              "scales": [3, 4]}]))
        out_csv = tmp_path / "bench.csv"
        rc = main(["bench", "--grid-json", str(grid), "--reps", "1",
                   "--out-csv", str(out_csv)])
        assert rc == 0
        _, out = echoed_json(capsys)
        assert out.count("[ok]") == 3
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("T,H,W,P,K,scale,predicted_patch_pairs")
        assert len(lines) == 4

    def test_dense_pairs_shown(self, tmp_path, capsys):
        # counts_match compares the dense pairs too, so a mismatch there must
        # be readable from the printed rows and the CSV
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([dataclasses.asdict(default_bench_grid()[0])]))
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--grid-json", str(grid), "--reps", "1",
                     "--out-csv", str(out_csv)]) == 0
        _, out = echoed_json(capsys)
        row4 = [line for line in out.splitlines() if "scale=4 " in line]
        assert len(row4) == 1 and "dense 663552/663552 " in row4[0]
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        (csv4,) = [r for r in rows if r["scale"] == "4"]
        assert [csv4[k] for k in ("T", "H", "W", "P", "K")] == ["2", "24", "24", "6", "4"]
        assert csv4["predicted_dense_pairs"] == csv4["measured_dense_pairs"] == "663552"

    def test_bad_grid_entry(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"t": 1, "h": 12}]))
        assert main(["bench", "--grid-json", str(grid)]) == 1

    @pytest.mark.parametrize("bad", [
        {"t": "a"},
        {"scales": 5},
        {"scales": None},
        {"scales": [7]},
        {"t": True},
        {"h": 24.5},
        {"h": -24},
        {"h": 25, "patch": 6},
        {"h": 24, "w": 24, "patch": 30},
    ], ids=["t-str", "scales-int", "scales-null", "scales-7", "t-bool", "h-float", "h-neg",
            "h-untileable", "patch-too-large"])
    def test_grid_values_are_checked(self, tmp_path, capsys, bad):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([dict({"t": 1, "h": 24, "w": 24, "patch": 6, "k": 2},
                                         **bad)]))
        assert main(["bench", "--grid-json", str(grid), "--reps", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threads_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--threads", "1"])
        assert err.value.code == 1

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_one(self, capsys, reps):
        assert main(["bench", "--reps", reps]) == 1
        captured = capsys.readouterr()
        assert "reps must be at least 1" in captured.err and "nan" not in captured.err
        assert captured.out == ""


def _flipped_query(q_key, *args, **kwargs):
    """The patch matcher run on the negated query key: its pixel logits
    flip sign, which both the dense oracle and the finite differences see."""
    return plmm_forward(FeatureGrid(-q_key.data), *args, **kwargs)


def _fold_without_coverage(patches):
    return FeatureGrid(scatter_add(patches))


def _ties_to_higher_index(scores, k):
    reversed_ids = topk_select(np.ascontiguousarray(scores[:, ::-1]), k).ids
    return TopKIndex(ids=scores.shape[1] - 1 - reversed_ids, k=k)


def _apex_history_capped_at_two(volume, seed_mask, cfg):
    return run_4d(volume, seed_mask, dataclasses.replace(cfg, apex_t_max=2))


# One fault per suite, patched into the suites' namespace: the name it
# replaces and the faulty stand-in.
SUITE_FAULTS = {
    "oracle-equivalence": ("plmm_forward", _flipped_query),
    "gradient-check": ("plmm_forward", _flipped_query),
    "fold-unfold": ("fold", _fold_without_coverage),
    "topk": ("topk_select", _ties_to_higher_index),
    "scheduler": ("run_4d", _apex_history_capped_at_two),
}


class TestVerifyCommand:
    def test_selected_suites_pass(self, capsys):
        rc = main(["verify", "--suite", "topk", "--suite", "fold-unfold"])
        assert rc == 0
        echo, out = echoed_json(capsys)
        assert echo["suites"] == ["topk", "fold-unfold"]
        assert "PASS  topk" in out
        assert "PASS  fold-unfold" in out
        assert "gradient-check" not in out
        assert "all suites passed" in out

    def test_injected_fault_is_caught_then_cleared(self, capsys, monkeypatch):
        # every suite, acceptance criteria 01, 02, 03 and 05 among them, fails
        # under its own fault, so none can pass vacuously; then all of them
        # pass together once the faults are gone
        assert set(SUITE_FAULTS) == set(verification.SUITES)
        for name, (attr, fault) in SUITE_FAULTS.items():
            with monkeypatch.context() as patched:
                patched.setattr(verification, attr, fault)
                rc = main(["verify", "--suite", name])
            _, out = echoed_json(capsys)
            assert rc == 3, name
            assert f"FAIL  {name}" in out
        assert main(["verify"]) == 0
        _, out = echoed_json(capsys)
        for name in verification.SUITES:
            assert f"PASS  {name}" in out
        assert "all suites passed" in out

    def test_inject_fault_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--inject-fault", "flip-similarity"])
        assert err.value.code == 1

    def test_unknown_suite_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 1


class TestImports:
    def test_program_loads_no_scipy(self):
        # the program runs on numpy alone; scipy only serves the tests as an oracle
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import patchmem.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.strip() == "[]"
