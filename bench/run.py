"""Benchmark for univalg: one workload per process, a fixed run length of
complete rounds, outputs checked apart from the program.

    python3 bench/run.py --workload ideal-ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --steadiness 10 --seconds 15

The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The set-up is repeated in-process and its median reported; the first
# repetition also pays for compiling the program's bytecode.
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "round_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = [
    "poly.groebner.self_s", "poly.groebner.calls", "poly.groebner.basis_len",
    "modgb.module_buchberger.basis_len",
    "poly.normal_form.self_s", "poly.normal_form.calls", "poly.normal_form.terms_in",
    "poly.ideal_equal.self_s",
    "modgb.module_buchberger.self_s", "modgb.module_buchberger.calls",
    "modgb.module_normal_form.self_s", "modgb.module_normal_form.calls",
    "modgb.module_normal_form.terms_in",
    "coalgebra.TensorSquare.normal_form.self_s", "coalgebra.TensorSquare.normal_form.calls",
    "coalgebra.build_coalgebra.self_s", "coalgebra.verify_bmodule_coalgebra.self_s",
    "pbw.normalize_word.self_s", "pbw.normalize_word.calls",
    "linalg.rank.self_s", "linalg.rank.calls",
    "lie.is_module_morphism.self_s", "representations.tensor_lie_module.self_s",
    "universal_modules.factorize_through_universal.self_s",
    "universal_modules.gamma.self_s", "universal_modules.factorize_lie.self_s",
    "universal_modules.gamma_lie.self_s", "universal_modules.functor_on_morphism_U.self_s",
    "universal_modules.build_universal_amodule.self_s",
    "universal_modules.direct_sum_check.self_s",
    "universal_algebra.build_universal_algebra.self_s",
    "universal_algebra.check_defining_relations.self_s",
    "lie.validate_lie_algebra.self_s", "universal_algebra.bialgebra_structure.self_s",
    "formats.parse.self_s", "formats.render.self_s", "cli.main.self_s",
    "trace.round_s",
]
FIELDS = {"calls": 0, "self_s": 1, "terms_in": 2, "basis_len": 3}


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"


def fresh_import():
    """Import univalg from this checkout's src/, dropping any earlier copy so
    that a repeated set-up pays for the import again."""
    for name in [n for n in sys.modules if n == "univalg" or n.startswith("univalg.")]:
        del sys.modules[name]
    uv = importlib.import_module("univalg")
    for sub in ("cli", "formats"):
        importlib.import_module(f"univalg.{sub}")
    if Path(uv.__file__).resolve().parent != (SRC / "univalg").resolve():
        raise ImportError(f"univalg was imported from {uv.__file__}, not from src/")
    return uv


def measure(ops, seconds: float) -> dict:
    """Repeat complete rounds until ``seconds`` have passed.  Round 1's
    outputs go through the heavy checks; later rounds must reproduce them
    byte for byte.  Checks run outside the timed part of a round."""
    clock = time.perf_counter
    rounds, op_times, problems = [], [], []
    attempted = failed = 0
    reference = None
    start = clock()
    while True:
        outputs = []
        r0 = clock()
        for op in ops:
            o0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = Failed(exc)
                failed += 1
                if reference is None:
                    traceback.print_exc(file=sys.stderr)
            op_times.append(clock() - o0)
            outputs.append(out)
        rounds.append(clock() - r0)
        attempted += len(ops)
        digests = [o.error if isinstance(o, Failed) else checks.canon(o) for o in outputs]
        if reference is None:
            for op, out in zip(ops, outputs):
                if not isinstance(out, Failed):
                    problems += [f"{op.name}: {p}" for p in op.check(out)]
            reference = digests
        elif digests != reference:
            bad = [op.name for op, a, b in zip(ops, digests, reference) if a != b]
            problems.append(f"round {len(rounds)} differs from round 1 in {bad[:3]}")
        if clock() - start >= seconds:
            break
    return {"rounds": rounds, "op_times": op_times, "attempted": attempted,
            "failed": failed, "problems": problems}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RESULTS)
    try:
        if trace:
            return _run_traced(workload, seed, seconds, workdir)
        return _run_plain(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_plain(workload, seed, seconds, workdir) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        uv = state = ops = None
        gc.collect()
        t0 = time.perf_counter()
        uv = fresh_import()
        state = workload.setup(uv, seed, workdir)
        ops = workload.ops(state)
        setups.append(time.perf_counter() - t0)
    res = measure(ops, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(res["rounds"]),
        "op_p50_ms": statistics.median(res["op_times"]) * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    res["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return res


def _run_traced(workload, seed, seconds, workdir) -> dict:
    uv = fresh_import()
    tracer = Tracer()
    tracer.install()
    state = workload.setup(uv, seed, workdir)
    ops = workload.ops(state)
    tracer.phase = "round"
    res = measure(ops, seconds)
    tracer.write(RESULTS / f"trace-{workload.name}-seed{seed}.jsonl")
    layers = tracer.per_layer(len(res["rounds"]))
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.round_s":
            metrics[name] = {"value": statistics.median(res["rounds"]), "unit": "s"}
            continue
        layer, field = name.rsplit(".", 1)
        value = layers.get(layer, [0, 0.0, 0, 0])[FIELDS[field]]
        unit = "s" if field == "self_s" else "count"
        metrics[name] = {"value": value if unit == "s" else round(value, 6), "unit": unit}
    res["metrics"] = metrics
    return res


# ---------------------------------------------------------------------------
# Steadiness: k runs of each workload in two interleaved sets
# ---------------------------------------------------------------------------


def steadiness(k: int, seconds: int, names) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {(w, s): [] for w in names for s in (0, 1)}
    for i in range(k):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in (names if (i + s) % 2 == 0 else names[::-1]):
                seed = 1000 * (s + 1) + i
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                if proc.returncode != 0 or not line.startswith("{"):
                    print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                out = json.loads(line)
                runs[(w, s)].append(out)
                print(f"{w} set {s + 1} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.5g}" for m, v in out["metrics"].items())
                    + f" attempted={out['attempted']} failed={out['failed']}"
                    + f" correct={out['correct']}", flush=True)
    ok = True
    for w in names:
        print(f"\n{w}")
        shares = {s: {r["failed"] / r["attempted"] for r in runs[(w, s)]} for s in (0, 1)}
        print(f"  failed share per set: {sorted(shares[0])} {sorted(shares[1])}")
        ok &= shares[0] == shares[1] and len(shares[0]) == 1
        ok &= all(r["correct"] for s in (0, 1) for r in runs[(w, s)])
        for m, bound in bounds.items():
            meds = []
            for s in (0, 1):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][m]["value"] for r in runs[(w, s)]], n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                steady = spread <= bound / 3 or m == "setup_s"
                ok &= steady
                print(f"  {m:12s} set {s + 1}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g}"
                      f" spread {spread:.3f} (bound {bound}, target < {bound / 3:.3f})"
                      f"{'' if steady else '  UNSTEADY'}")
            drift = (meds[1] - meds[0]) / meds[0]
            ok &= abs(drift) <= bound
            print(f"  {m:12s} set 2 vs set 1: {drift:+.3f}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="K",
                   help="run every workload (or --workload) K times in each of two "
                        "interleaved sets and report spreads against the bounds")
    args = p.parse_args(argv)
    if not (SRC / "univalg" / "__init__.py").is_file():
        print(f"error: no univalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steadiness is not None:
        if args.steadiness < 2:
            p.error("--steadiness needs K >= 2 to give quartiles")
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(args.steadiness, int(args.seconds), names)
    if args.workload is None:
        p.error("--workload is required")
    res = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in res["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {res['attempted']} failed {res['failed']}"
          f" rounds {len(res['rounds'])}")
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
