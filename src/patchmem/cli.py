"""Command-line entry point.

Subcommands: phantom (synthetic 4D volume + truth), propagate (seeded 4D
segmentation), eval (region metrics CSV + table), bench (complexity CSV),
verify (self-check suites). Every command echoes its effective
configuration as JSON; feeding the echoed config back reproduces the
outputs bit for bit.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 verification failure. Each package error class names its own code, its
``exit_code``; an unreadable or unwritable file is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import DataError, DimensionError, ParameterError, PatchmemError
from .evalkit import (
    BenchConfig,
    PhantomSpec,
    check_complexity,
    default_bench_grid,
    gen_phantom,
    report_by_region,
)
from .featurizer import EncoderConfig
from .grids import CineVolume, LabelVolume, load_container, save_container
from .propagator import PropagationConfig, _checked_fractions, partition_regions, run_4d
from .verification import SUITES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _check_writable(path):
    """Raise the OSError that writing ``path`` would, without writing it.

    Opens the file for appending, which neither truncates an existing file
    nor leaves a new one behind.
    """
    existed = os.path.lexists(path)
    with open(path, "ab"):
        pass
    if not existed:
        os.remove(path)


def _read_json(path, what):
    """The value a JSON file holds, or a ParameterError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # ValueError covers bad UTF-8, bad JSON and integers past Python's digit
    # limit; RecursionError covers deeply nested arrays or objects
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_json_config(path):
    loaded = _read_json(path, "config file")
    if not isinstance(loaded, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return loaded


def _merged(file_cfg, overrides):
    """The config file's entries with every flag that was given on top."""
    return {**file_cfg, **{k: v for k, v in overrides.items() if v is not None}}


def _from_json(cls, values, what):
    """A config dataclass from a JSON object; its fields name the keys it takes."""
    if not isinstance(values, dict):
        raise ParameterError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(values) - {f.name for f in fields}
    missing = {f.name for f in fields if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING} - set(values)
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ParameterError(f"{problem} {what} keys: {', '.join(sorted(keys))}")
    return cls(**values)


def _echo(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_phantom(args):
    file_cfg = _load_json_config(args.spec_json) if args.spec_json else {}
    overrides = {
        "z_count": args.z, "t_count": args.t,
        "height": args.height, "width": args.width, "spacing_mm": args.spacing,
        "lv_radius_px": args.lv_radius, "myo_thickness_px": args.myo_thickness,
        "rv_offset_px": args.rv_offset,
        "contraction_frac": args.contraction,
        "longaxis_shorten_frac": args.shortening,
        "noise_sigma": args.noise, "seed": args.seed,
    }
    if args.distractor is not None:
        overrides["distractor"] = args.distractor == "on"
    spec = _from_json(PhantomSpec, _merged(file_cfg, overrides), "phantom config")
    _echo({"command": "phantom", "spec": dataclasses.asdict(spec),
           "out_volume": args.out_volume, "out_truth": args.out_truth})
    volume, truth = gen_phantom(spec)
    save_container(volume, args.out_volume)
    save_container(truth, args.out_truth)
    print(f"phantom written: Z={spec.z_count} T={spec.t_count} "
          f"H={spec.height} W={spec.width} seed={spec.seed}")
    return EXIT_OK


def cmd_propagate(args):
    volume = load_container(args.volume)
    if not isinstance(volume, CineVolume):
        raise DataError(f"{args.volume} does not hold a cine volume")
    seed_obj = load_container(args.seed_mask)
    if isinstance(seed_obj, LabelVolume):
        raise DataError(f"{args.seed_mask} holds a full label volume; "
                        "the seed must be a single 2-d mask")
    seed = np.asarray(seed_obj)
    if seed.ndim != 2:
        raise DataError(f"{args.seed_mask} does not hold a 2-d mask")

    file_cfg = _load_json_config(args.config) if args.config else {}
    overrides = {
        "z0": args.z0, "patch": args.patch, "k": args.k, "scales": args.scales,
        "apex_t_max": args.apex_t_max, "continuity_mode": args.continuity,
        "matcher": args.matcher, "working_side": args.working_side,
    }
    merged = _merged(file_cfg, overrides)
    merged["encoder"] = _from_json(EncoderConfig, merged.get("encoder", {}),
                                   "encoder config")
    if merged.get("z0") is None:
        merged["z0"] = volume.z_count // 2
    cfg = _from_json(PropagationConfig, merged, "propagate config")
    if args.basal_frac is not None or args.apex_frac is not None:
        basal, apex = cfg.region_fractions
        cfg = dataclasses.replace(cfg, region_fractions=(
            basal if args.basal_frac is None else args.basal_frac,
            apex if args.apex_frac is None else args.apex_frac))

    _echo({"command": "propagate", "config": dataclasses.asdict(cfg),
           "volume": args.volume, "seed_mask": args.seed_mask,
           "out_masks": args.out_masks,
           "out_provenance": args.out_provenance})

    # an output that cannot be written fails before the study is matched
    for path in (args.out_masks, args.out_provenance):
        if path:
            _check_writable(path)
    result = run_4d(volume, seed, cfg)
    save_container(result.masks, args.out_masks)
    if args.out_provenance:
        payload = {
            "frames": {f"{z},{t}": [list(fid) for fid in bank]
                       for (z, t), bank in result.provenance.items()},
            "order": [list(fid) for fid in result.provenance],
            "work_dims": list(result.work_dims),
        }
        with open(args.out_provenance, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    total = volume.z_count * volume.t_count
    print(f"segmented {total} frames ({volume.z_count} slices x "
          f"{volume.t_count} phases) with matcher={cfg.matcher}")
    return EXIT_OK


def cmd_eval(args):
    # bad fractions and an output that cannot be written fail before the
    # volumes are loaded
    fractions = _checked_fractions((args.basal_frac, args.apex_frac))
    if args.out_csv:
        _check_writable(args.out_csv)
    pred = load_container(args.pred)
    truth = load_container(args.truth)
    if not isinstance(pred, LabelVolume) or not isinstance(truth, LabelVolume):
        raise DataError("eval expects two label volumes")
    if pred.labels.shape != truth.labels.shape:
        raise DimensionError(
            f"prediction {pred.labels.shape} and truth {truth.labels.shape} disagree")
    partition = partition_regions(truth.z_count, fractions)
    report = report_by_region(pred, truth, partition, method=args.method)
    _echo({"command": "eval", "pred": args.pred, "truth": args.truth,
           "region_fractions": list(fractions), "method": args.method,
           "out_csv": args.out_csv})
    if args.out_csv:
        report.to_csv(args.out_csv)
    print(report.format_table())
    return EXIT_OK


def _parse_bench_grid(path):
    rows = _read_json(path, "grid file")
    if not isinstance(rows, list) or not rows:
        raise ParameterError("bench grid must be a non-empty JSON array")
    return [_from_json(BenchConfig, row, f"bench grid entry {i}")
            for i, row in enumerate(rows)]


def cmd_bench(args):
    configs = _parse_bench_grid(args.grid_json) if args.grid_json \
        else default_bench_grid()
    report = check_complexity(configs, reps=args.reps)
    _echo({"command": "bench", "reps": args.reps,
           "grid": [dataclasses.asdict(c) for c in configs],
           "out_csv": args.out_csv})
    if args.out_csv:
        report.to_csv(args.out_csv)
    for r in report.rows:
        status = "ok" if r.counts_match else "MISMATCH"
        print(f"T={r.t} H={r.h} W={r.w} P={r.patch} K={r.k} scale={r.scale} "
              f"patch {r.measured_patch_pairs}/{r.predicted_patch_pairs} "
              f"pixel {r.measured_pixel_pairs}/{r.predicted_pixel_pairs} "
              f"dense {r.measured_dense_pairs}/{r.predicted_dense_pairs} "
              f"plmm {r.plmm_ms:.2f} ms dense {r.dense_ms:.2f} ms [{status}]")
    if not report.all_match:
        print("operation counts disagree with the closed forms", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args):
    names = args.suite or list(SUITES)
    _echo({"command": "verify", "suites": names})
    results = [SUITES[name]() for name in names]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    if all(r.passed for r in results):
        print("all suites passed")
        return EXIT_OK
    return EXIT_VERIFY


def _scale_list(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="patchmem",
                     description="Patch-level memory matching for 4D "
                                 "cine segmentation: phantom data, mask "
                                 "propagation, metrics, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic cine volume "
                                       "and its exact labels")
    p.add_argument("--out-volume", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--spec-json", help="JSON file with phantom parameters; "
                                       "flags override its entries")
    p.add_argument("--z", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--spacing", type=float, nargs=2, metavar=("DY", "DX"))
    p.add_argument("--lv-radius", type=float)
    p.add_argument("--myo-thickness", type=float)
    p.add_argument("--rv-offset", type=float)
    p.add_argument("--contraction", type=float)
    p.add_argument("--shortening", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--distractor", choices=["on", "off"])
    p.add_argument("--seed", type=int)

    p = sub.add_parser("propagate", help="propagate a seed mask through a "
                                         "4D volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--seed-mask", required=True)
    p.add_argument("--out-masks", required=True)
    p.add_argument("--out-provenance")
    p.add_argument("--config", help="JSON config; flags override its entries")
    p.add_argument("--matcher", choices=["plmm", "dense"])
    p.add_argument("--scales", type=_scale_list,
                   help="comma-separated subset of 3,4")
    p.add_argument("--patch", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--z0", type=int)
    # the anchor is always phase 0; the flag stays so that callers may say so
    p.add_argument("--t0", type=int, choices=[0])
    p.add_argument("--apex-t-max", type=int)
    p.add_argument("--continuity",
                   choices=["both", "spatial-only", "temporal-only"])
    p.add_argument("--basal-frac", type=float)
    p.add_argument("--apex-frac", type=float)
    p.add_argument("--working-side", type=int)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--basal-frac", type=float, default=1.0 / 3.0)
    p.add_argument("--apex-frac", type=float, default=1.0 / 3.0)
    p.add_argument("--method", default="plmm",
                   help="method name written into the CSV rows")
    # eval runs on one thread; the flag stays so that callers may say so
    p.add_argument("--threads", type=int, choices=[1])

    p = sub.add_parser("bench", help="measure matching cost against the "
                                     "closed-form operation counts")
    p.add_argument("--out-csv")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--grid-json", help="JSON array of "
                                       "{t,h,w,patch,k[,scales]} entries")

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="run only this suite (repeatable)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the handlers are looked up on each call, so one that replaces a cmd_*
    # attribute of this module after the parser is built is the one that runs
    handler = {"phantom": cmd_phantom, "propagate": cmd_propagate, "eval": cmd_eval,
               "bench": cmd_bench, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except PatchmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a missing file, a directory where a file belongs, no permission
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a backstop: the configuration checks refuse the sizes known to fail
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
