"""Study-level benchmark: whole cine studies through the patchmem CLI.

Each study is ``patchmem propagate`` followed by ``patchmem eval``, called in
process through ``patchmem.cli.main`` on CGRID files written during set-up
from the analytic phantom. The program sees only those files.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-288 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced studies and reports per-layer metrics, with every public function
of the package wrapped from outside (see spans.py). ``--workload all`` runs
each workload in a fresh process, so peak RSS belongs to one workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, plus the machine record. A study fails, and
counts in ``failed``, unless both commands exit 0, every frame is labelled
in 0..3, the anchor equals the seed, the masks are identical across the run's
studies and the whole-heart Dice reaches the criterion-07 floor.

The timed metrics (setup_s, propagate_s, frames_per_s, eval_s) are scaled to
a nominal host speed by a fixed reference run before and after each timed
step (see "host speed" below); propagate_s and eval_s are CPU seconds of the
process, which runs the program on one thread. The measured wall and CPU
seconds are printed beside them.
"""

import os

# One BLAS thread, set before numpy loads: a study is then single-threaded,
# so its CPU time is its wall time minus what the host took from it. With
# OpenBLAS's default of one thread per core, the second thread only spins:
# a study took the same wall time and twice the CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Settings of acceptance criterion 07, shared by every workload.
PATCH = 6
K = 4
SCALES = (3, 4)
APEX_T_MAX = 3
CONTINUITY = "both"
KEY_CHANNELS = 64
VALUE_CHANNELS = 4  # background plus three cardiac classes
DICE_FLOOR = 0.89

SETUP_REPS = 5
EVAL_REPS = 6


@dataclass(frozen=True)
class Workload:
    phantom: dict
    matcher: str
    working_side: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "paper-288": Workload(dict(t_count=4), "plmm", 288),
    "paper-288-dense": Workload(dict(t_count=4), "dense", 288),
    "wide-576": Workload(
        dict(z_count=5, t_count=2, height=256, width=256, lv_radius_px=40.0,
             myo_thickness_px=14.0, rv_offset_px=60.0), "plmm", 576),
}


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import patchmem
    except ImportError:
        patchmem = None
    if patchmem is None or not Path(patchmem.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: no patchmem source under {src}; run from the root "
                 "of a source checkout")
    import numpy
    import scipy
    from patchmem import cli, evalkit, grids, matcher
    return numpy, scipy, cli, evalkit, grids, matcher


NP, SCIPY, CLI, EVALKIT, GRIDS, MATCHER = _import_program()

import spans  # noqa: E402  (next to this file; imported after the program)


# --- machine record ---------------------------------------------------------

def machine_record(seed):
    deps = NP.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    thread_env = {k: v for k, v in sorted(os.environ.items())
                  if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS",
                                                           "CSTM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": NP.__version__,
        "scipy": SCIPY.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": thread_env,
        "phantom_seed": seed,
    }


def host_steal():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return float("nan")
    return (after[0] - before[0]) / (after[1] - before[1])


# --- set-up -------------------------------------------------------------------

@dataclass
class Inputs:
    work: Path
    z_count: int
    t_count: int
    z0: int
    seed_mask: object

    def path(self, name):
        return str(self.work / name)

    @property
    def segmented(self):
        return self.z_count * self.t_count - 1


def write_inputs(work, wl, seed):
    """Generate the phantom and write the CGRID files one study reads."""
    spec = EVALKIT.PhantomSpec(seed=seed, **wl.phantom)
    volume, truth = EVALKIT.gen_phantom(spec)
    z0 = spec.z_count // 2
    seed_mask = truth.labels[z0, 0]
    inputs = Inputs(work, spec.z_count, spec.t_count, z0, seed_mask)
    GRIDS.save_container(volume, inputs.path("volume.cgrid"))
    GRIDS.save_container(truth, inputs.path("truth.cgrid"))
    GRIDS.save_container(seed_mask, inputs.path("seed.cgrid"))
    with open(inputs.path("config.json"), "w") as fh:
        json.dump({"encoder": {"key_channels": KEY_CHANNELS}}, fh)
    return inputs


# --- host speed -------------------------------------------------------------
# On a shared VM the host's speed drifts: the CPU time of one and the same
# study moved by a third within minutes. So every command is timed between
# runs of a fixed reference, and its CPU time is scaled to a host on which
# the reference takes REFERENCE_S. Of the kinds of work tried as reference
# (einsum, softmax, bilinear gathers, memory copies, KD-trees, BLAS, Python
# loops), the CPU times of BLAS and of Python loops moved in proportion to
# those of propagate and eval; the others moved more or less than them. The
# reference calls nothing of the program, so no change to the program can
# move it.

REFERENCE_S = 0.16  # about its median on a 2-vCPU Intel Xeon VM
_REFERENCE_MATRIX = NP.random.default_rng(0).standard_normal((1296, 64))


def reference_cpu_s():
    """CPU seconds of the fixed reference."""
    start = time.process_time()
    for _ in range(6):
        _REFERENCE_MATRIX @ _REFERENCE_MATRIX.T
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.process_time() - start


def host_scale(before, after):
    """Factor from measured CPU seconds to seconds on the nominal host."""
    return 2 * REFERENCE_S / (before + after)


# --- set-up time ----------------------------------------------------------

_IMPORT_PROGRAM = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from patchmem import cli, evalkit, grids, matcher
print(time.perf_counter() - start)
"""


def import_s():
    """Wall seconds a fresh interpreter takes to import the program."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def set_up(work, wl, seed):
    """Set up SETUP_REPS times: import the program in a fresh interpreter and
    write the inputs. Returns the inputs and the median set-up seconds, scaled
    to the nominal host like the study times."""
    before = reference_cpu_s()
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = write_inputs(work, wl, seed)
        reps.append(time.perf_counter() - start + import_s())
    return inputs, statistics.median(reps) * host_scale(before, reference_cpu_s())


# --- one study ---------------------------------------------------------------

@dataclass
class Study:
    """One study. ``propagate`` and each of ``evals`` are (wall, CPU) seconds
    of one command; ``reference`` holds the reference's CPU seconds before
    propagate and after every command, so each command lies between two."""
    traced: bool
    propagate: tuple
    evals: list
    reference: tuple
    problems: list
    dice: float = 0.0
    hd95: float = 0.0
    digest: str = ""
    wall_s: float = 0.0
    layers: dict = None

    @property
    def propagate_s(self):
        """propagate's CPU seconds, scaled to the nominal host."""
        return self.propagate[1] * host_scale(*self.reference[:2])

    @property
    def eval_s(self):
        return [cpu * host_scale(*self.reference[i + 1:i + 3])
                for i, (_, cpu) in enumerate(self.evals)]


def _call(argv):
    """Run one CLI command in process.

    Returns (exit code, captured stderr, (wall seconds, CPU seconds)).
    """
    wall, cpu = time.perf_counter(), time.process_time()
    code, err = _run_cli(argv)
    return code, err, (time.perf_counter() - wall, time.process_time() - cpu)


def _run_cli(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark records the failure and keeps running
        code = -1
        err.write(traceback.format_exc())
    return code, err.getvalue()


def propagate_argv(inputs, wl):
    return ["propagate",
            "--volume", inputs.path("volume.cgrid"),
            "--seed-mask", inputs.path("seed.cgrid"),
            "--out-masks", inputs.path("masks.cgrid"),
            "--out-provenance", inputs.path("provenance.json"),
            "--config", inputs.path("config.json"),
            "--matcher", wl.matcher, "--working-side", str(wl.working_side),
            "--patch", str(PATCH), "--k", str(K),
            "--scales", ",".join(str(s) for s in SCALES),
            "--z0", str(inputs.z0), "--t0", "0",
            "--apex-t-max", str(APEX_T_MAX), "--continuity", CONTINUITY]


def eval_argv(inputs):
    # One worker thread: with two, eval's wall time drifts by a third between
    # blocks of calls in one process on a 2-core box; single-threaded, by 1 %.
    return ["eval", "--pred", inputs.path("masks.cgrid"),
            "--truth", inputs.path("truth.cgrid"),
            "--out-csv", inputs.path("eval.csv"), "--threads", "1"]


def run_study(inputs, wl, traced):
    start = time.perf_counter()
    tracer = counter = None
    with contextlib.ExitStack() as stack:
        if traced:
            tracer, counter = spans.Tracer(), MATCHER.OpCounter()
            stack.enter_context(spans.patched(tracer, counter))
        reference = [reference_cpu_s()]
        code, err, prop = _call(propagate_argv(inputs, wl))
        reference.append(reference_cpu_s())
        problems = [] if code == 0 else [f"propagate exited {code}: {err.strip()}"]
        evals = []
        for _ in range(1 if traced else EVAL_REPS):
            code, err, times = _call(eval_argv(inputs))
            evals.append(times)
            reference.append(reference_cpu_s())
            if code:
                problems.append(f"eval exited {code}: {err.strip()}")
                break
    study = Study(traced, prop, evals, tuple(reference), problems)
    if not problems:
        check_outputs(inputs, study)
    if traced and not study.problems:
        study.layers = layer_values(inputs, wl, tracer, counter, study)
    study.wall_s = time.perf_counter() - start
    return study


def check_outputs(inputs, study):
    """Per-study correctness: coverage, label range, anchor, Dice floor."""
    masks = GRIDS.load_container(inputs.path("masks.cgrid"))
    if not isinstance(masks, GRIDS.LabelVolume):
        study.problems.append("propagate did not write a label volume")
        return
    labels = masks.labels
    shape = (inputs.z_count, inputs.t_count) + inputs.seed_mask.shape
    if labels.shape != shape:
        study.problems.append(f"masks have shape {labels.shape}, expected {shape}")
        return
    if labels.max() > 3:
        study.problems.append(f"labels outside 0..3 (max {labels.max()})")
    if not NP.array_equal(labels[inputs.z0, 0], inputs.seed_mask):
        study.problems.append("anchor frame differs from the seed mask")
    study.digest = hashlib.sha256(labels.tobytes()).hexdigest()
    with open(inputs.path("eval.csv"), newline="") as fh:
        row = next(r for r in csv.DictReader(fh)
                   if r["region"] == "whole" and r["class"] == "Avg")
    study.dice = float(row["dice"])
    study.hd95 = float(row["hd95_mm"])
    if study.dice < DICE_FLOOR:
        study.problems.append(f"whole-heart Dice {study.dice:.4f} < {DICE_FLOOR}")


# --- per-layer values of one traced study ----------------------------------

def closed_forms(wl, banks):
    """Patch, pixel and dense-equivalent pair counts predicted per study."""
    grid4, grid3 = wl.working_side // 16, wl.working_side // 8
    n4 = ((grid4 - PATCH) // (PATCH // 2) + 1) ** 2
    n3 = ((grid3 - 2 * PATCH) // PATCH + 1) ** 2
    dense_per_frame = {4: grid4 ** 4, 3: grid3 ** 4}
    patch = pixel = dense = 0
    for t in banks:
        dense += t * sum(dense_per_frame[s] for s in SCALES)
        k_eff = min(K, t * n4)
        if 4 in SCALES:
            patch += t * n4 * n4
            pixel += n4 * k_eff * PATCH ** 4
        if 3 in SCALES:
            pixel += n3 * k_eff * (2 * PATCH) ** 4
    if wl.matcher == "dense":
        return 0, dense, dense
    return patch, pixel, dense


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_values(inputs, wl, tracer, counter, study):
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def ms(name, which=2):
        return totals.get(name, (0, 0, 0))[which] / 1e6

    with open(inputs.path("provenance.json")) as fh:
        prov = json.load(fh)
    banks = [len(bank) for bank in prov["frames"].values() if bank]
    patch_pred, pixel_pred, dense_eq = closed_forms(wl, banks)
    frames = inputs.segmented
    frame_total = inputs.z_count * inputs.t_count
    s = len(SCALES)
    matcher_name = "matcher.dense_readout" if wl.matcher == "dense" \
        else "matcher.plmm_forward"
    expected_calls = {
        "featurizer.encode_key": frame_total,
        "grids.resize_bilinear": 2 * frame_total + s * frames,
        matcher_name: s * frames,
        "propagator.build_bank": frames,
        "propagator.segment_frame": frames,
    }
    for name, want in expected_calls.items():
        if calls(name) != want:
            study.problems.append(f"{name}.calls = {calls(name)}, closed form {want}")
    counts_match = (counter.patch_pairs, counter.pixel_pairs) == (patch_pred, pixel_pred)
    if not counts_match:
        study.problems.append(
            f"op counts patch={counter.patch_pairs} pixel={counter.pixel_pairs}, "
            f"closed forms patch={patch_pred} pixel={pixel_pred}")
    if len(banks) != frames:
        study.problems.append(f"provenance lists {len(banks)} banks for {frames} frames")

    frame_ms = [(a + b) / 1e6 for a, b in zip(tracer.durations("propagator.build_bank"),
                                              tracer.durations("propagator.segment_frame"))]
    # computed, not counted by hardware: a multiply-add per channel for the
    # logit and for the readout of every pixel pair
    flops = 2 * counter.pixel_pairs * (KEY_CHANNELS + VALUE_CHANNELS)
    matcher_ms = ms(matcher_name)
    container_bytes = sum(os.path.getsize(inputs.path(n)) for n in (
        "volume.cgrid", "seed.cgrid", "masks.cgrid",   # propagate reads, writes
        "masks.cgrid", "truth.cgrid"))                 # eval reads
    values = {
        "exact": {
            "grids.resize_bilinear.calls": calls("grids.resize_bilinear"),
            "grids.downsample_avg.calls": calls("grids.downsample_avg"),
            "grids.FeatureGrid.calls": calls("grids.FeatureGrid"),
            "grids.container_bytes": container_bytes,
            "patcher.unfold.calls": calls("patcher.unfold"),
            "patcher.unfold.calls_per_frame": calls("patcher.unfold") / frames,
            "patcher.fold.calls": calls("patcher.fold"),
            "matcher.plmm_forward.calls": calls("matcher.plmm_forward"),
            "matcher.dense_readout.calls": calls("matcher.dense_readout"),
            "matcher.patch_pairs": counter.patch_pairs,
            "matcher.pixel_pairs": counter.pixel_pairs,
            "matcher.counts_match": int(counts_match),
            "matcher.pair_saving": dense_eq / (counter.patch_pairs + counter.pixel_pairs),
            "featurizer.encode_key.calls": calls("featurizer.encode_key"),
            "featurizer.encode_value.calls": calls("featurizer.encode_value"),
            "featurizer.decode.calls": calls("featurizer.decode"),
            "propagator.bank_frames.mean": sum(banks) / len(banks),
            "evalkit.hd95.calls": calls("evalkit.hd95"),
            "evalkit.hd95_whole_mm": study.hd95,
        },
        "times": {
            "grids.resize_bilinear.self_ms": ms("grids.resize_bilinear"),
            "grids.downsample_avg.self_ms": ms("grids.downsample_avg"),
            "grids.FeatureGrid.self_ms": ms("grids.FeatureGrid"),
            "grids.load_container.self_ms": ms("grids.load_container"),
            "grids.save_container.self_ms": ms("grids.save_container"),
            "patcher.unfold.self_ms": ms("patcher.unfold"),
            "patcher.fold.self_ms": ms("patcher.fold"),
            "matcher.plmm_forward.self_ms": ms("matcher.plmm_forward"),
            "matcher.patch_affinity.self_ms": ms("matcher.patch_affinity"),
            "matcher.topk_select.self_ms": ms("matcher.topk_select"),
            "matcher.dense_readout.self_ms": ms("matcher.dense_readout"),
            "matcher.pixel_gflop_per_s": flops / matcher_ms / 1e6 if matcher_ms else 0.0,
            "pyramid.match_multiscale.self_ms": ms("pyramid.match_multiscale"),
            "pyramid.lift_topk.self_ms": ms("pyramid.lift_topk"),
            "featurizer.encode_key.self_ms": ms("featurizer.encode_key"),
            "featurizer.encode_value.self_ms": ms("featurizer.encode_value"),
            "featurizer.decode.self_ms": ms("featurizer.decode"),
            "propagator.build_bank.self_ms": ms("propagator.build_bank"),
            "propagator.segment_frame.self_ms": ms("propagator.segment_frame"),
            "propagator.collect_result.self_ms": ms("propagator.collect_result"),
            "propagator.run_4d.self_ms": ms("propagator.run_4d"),
            "evalkit.report_by_region.self_ms": ms("evalkit.report_by_region"),
            "evalkit.report_by_region.wall_ms": ms("evalkit.report_by_region", 1),
            "evalkit.hd95.busy_ms": ms("evalkit.hd95", 1),
            "evalkit.dice.self_ms": ms("evalkit.dice"),
            "cli.propagate.self_ms": ms("cli.propagate"),
            "cli.eval.self_ms": ms("cli.eval"),
        },
        "frame_ms": frame_ms,
    }
    return values


# --- one workload, one process ----------------------------------------------

def measure(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_s = set_up(work, wl, seed)

        studies = []
        steal_start = host_steal()
        start = time.perf_counter()
        while True:  # start a study only if the longest one so far still fits
            traced = trace and len(studies) % 2 == 1
            kinds = {s.traced for s in studies}
            enough = kinds == ({False, True} if trace else {False})
            longest = max((s.wall_s for s in studies), default=0.0)
            if enough and time.perf_counter() - start + longest > seconds:
                break
            studies.append(run_study(inputs, wl, traced))
        steal_frac = share(steal_start, host_steal())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    plain = [s for s in studies if not s.traced]
    if trace:
        metrics = traced_metrics(studies, plain)
    else:
        metrics = {
            "setup_s": setup_s,
            "propagate_s": statistics.median(s.propagate_s for s in plain),
            "frames_per_s": inputs.segmented * len(plain)
            / sum(s.propagate_s for s in plain),
            "eval_s": statistics.median(t for s in plain for t in s.eval_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "dice_whole": statistics.median(s.dice for s in plain),
        }
    digests = {s.digest for s in studies if s.digest}
    if len(digests) > 1:
        for s in studies:
            s.problems.append("mask digest differs between studies of this run")
    for i, s in enumerate(studies):
        for p in s.problems:
            print(f"study {i} ({'traced' if s.traced else 'plain'}) failed: {p}",
                  file=sys.stderr)
    failed = sum(1 for s in studies if s.problems)

    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": len(studies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    # failed_frac is the result's failed / attempted; HD95 varies too much
    # from seed to seed for a bound, so both are printed here, not gated.
    print(f"workload {name}: {len(studies)} studies "
          f"({sum(s.traced for s in studies)} traced)")
    print(f"{name} failed_frac {failed / len(studies):.6g} ratio")
    print(f"{name} hd95_whole_mm {statistics.median(s.hd95 for s in plain):.6g} mm")
    # The timed metrics are CPU seconds scaled to the reference host; the
    # measured wall and CPU seconds, the host's speed against the reference
    # and the share of CPU time stolen by other guests are printed beside them.
    for what, i in (("wall", 0), ("cpu", 1)):
        print(f"{name} propagate_{what}_s "
              f"{statistics.median(s.propagate[i] for s in plain):.6g} s")
        print(f"{name} eval_{what}_s "
              f"{statistics.median(t[i] for s in plain for t in s.evals):.6g} s")
    speed = statistics.median(REFERENCE_S / r for s in studies for r in s.reference)
    print(f"{name} host_speed {speed:.6g} ratio")
    print(f"{name} host_steal_frac {steal_frac:.6g} ratio")
    for k, v in metrics.items():
        print(f"{name} {k} {v:.6g} {units[k]}")
    print("machine " + json.dumps(machine_record(seed), sort_keys=True))
    return result


def traced_metrics(studies, plain):
    traced = [s for s in studies if s.traced and s.layers]
    if not traced:
        return {name: 0.0 for name in declared_units("per_layer")}
    exact = traced[0].layers["exact"]
    for s in traced[1:]:
        if s.layers["exact"] != exact:
            s.problems.append("per-study counts differ between traced studies")
    out = dict(exact)
    for key in traced[0].layers["times"]:
        out[key] = statistics.median(s.layers["times"][key] for s in traced)
    frame_ms = [v for s in traced for v in s.layers["frame_ms"]]
    out["propagator.frame_ms.p50"] = statistics.median(frame_ms)
    out["propagator.frame_ms.p90"] = percentile(frame_ms, 0.9)
    out["propagator.frame_ms.samples"] = len(frame_ms)
    out["trace.overhead_frac"] = (
        statistics.median(s.propagate_s for s in traced)
        / statistics.median(s.propagate_s for s in plain) - 1.0)
    return out


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# --- every workload, one process each ----------------------------------------

def measure_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7, help="phantom noise seed")
    parser.add_argument("--seconds", type=int, default=40,
                        help="measuring time; a study starts only if it can end in time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = measure_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
