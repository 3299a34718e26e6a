#!/usr/bin/env python3
"""Closed-loop benchmark of the assigncoh command line.

One client calls ``assigncoh.cli.main([...])`` in this process and sends
the next op only after the previous one returned.  The ops and their input
files come from ``workloads.py`` and depend only on ``--seed``.

    python3 perfbench/run.py --workload elim --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 0 --seconds 30

The first form runs one workload and prints its metrics; the last line of
stdout is one JSON object.  With ``--trace 0`` it sets up and runs the op
list ("a pass") five times, fewer if the next one would not end within
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
runs an untraced, a traced and an untraced pass and reports the per-layer
metrics.  ``--report`` runs every
workload in its own process and prints one table.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("elim", "full", "light")
PASSES = 5

# Speed probe: a fixed exact elimination like the ones the package runs.
# On a shared machine the probe alone varies by 2x within a minute, so every
# latency is reported in reference seconds: the measured seconds scaled by
# PROBE_REF_S / (probe time measured right before and after the op).  The
# probe runs in PROBE_REF_S on the machine the benchmark was tuned on.
PROBE_REF_S = 0.0012
_PROBE_ROWS = [[(7 * i * i + 3 * j * j + 5 * i * j) % 7 - 3 for j in range(12)] for i in range(12)]

END_TO_END = {          # name: unit
    "run_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_density", "_fill", "_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def probe() -> float:
    """Faster of two timed runs of the speed probe, in seconds."""
    import oracle

    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        oracle.rank(_PROBE_ROWS)
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# setup: import the package from this checkout and generate the inputs

def import_package():
    """Fresh import of assigncoh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "assigncoh" or m.startswith("assigncoh.")]:
        del sys.modules[name]
    api = importlib.import_module("assigncoh")
    cli = importlib.import_module("assigncoh.cli")
    if Path(api.__file__).resolve().parent != SRC / "assigncoh":
        raise ImportError(f"assigncoh was imported from {api.__file__}, not from {SRC}")
    return api, cli


def setup(workload: str, seed: int, target: Path):
    """Import the package afresh, generate the inputs and write them to target.

    Returns the fresh ``assigncoh.cli``, the files, the ops and the time taken.
    """
    import workloads

    gc.collect()
    t0 = time.perf_counter()
    api, cli = import_package()
    files, ops = workloads.generate(api, workload, seed)
    target.mkdir(parents=True)
    for name, data in files.items():
        (target / name).write_bytes(data)
    return cli, files, ops, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# timed passes

def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:       # argparse usage errors exit through SystemExit
        code = e.code if isinstance(e.code, int) else 1
    except Exception:             # a crash fails the op; keep its traceback
        dt = time.perf_counter() - t0
        err.write(traceback.format_exc())
        return None, out.getvalue(), err.getvalue(), dt
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_pass(cli, ops, keep_text: bool, tracer=None):
    """Wall time and per op (code, stdout or its digest, stderr, seconds,
    mean of the probes right before and after it)."""
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        results = []
        t0 = time.perf_counter()
        before = probe()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            code, out, err, dt = run_op(cli, op.argv)
            after = probe()
            results.append((code, out if keep_text else _sha(out), err, dt,
                            (before + after) / 2))
            before = after
        return time.perf_counter() - t0, results
    finally:
        if tracer is not None:
            tracer.uninstall()


def cycles(workload: str, seed: int, workdir: Path, tracers, seconds: float = float("inf")):
    """Set up, then run one pass over the ops; once per entry of ``tracers``.

    Stops early when the next cycle would not end within ``seconds``.  Each
    cycle imports the package afresh: the CLI runs one command per process,
    so nothing the package keeps in memory may outlive a pass.  Spreading
    the set-ups between the passes also keeps their samples apart in time.
    Every set-up must write byte-identical files and the same ops.
    Returns the ops, the set-up times in reference seconds and the passes.
    """
    start = time.perf_counter()
    first, setup_times, passes = None, [], []
    for k, tracer in enumerate(tracers):
        target = workdir / f"in{k}"
        before = probe()
        cli, files, ops, setup_s = setup(workload, seed, target)
        setup_s *= 2 * PROBE_REF_S / (before + probe())
        if first is None:
            first = (files, ops)
        elif files != first[0] or [o.argv for o in ops] != [o.argv for o in first[1]]:
            raise RuntimeError("input generation is not deterministic")
        setup_times.append(setup_s)
        os.chdir(target)
        try:
            passes.append(run_pass(cli, ops, keep_text=k == 0, tracer=tracer))
        finally:
            os.chdir(ROOT)
        cycle = (time.perf_counter() - start) / len(passes)
        if time.perf_counter() - start + cycle > seconds:
            break
    return first[1], setup_times, passes


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(workload: str, seed: int):
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def verify(ops, passes, reference, log):
    """(attempted, failed): every run of an op fails if its first run fails
    a check or differs from the reference, or if a later run differs from
    the first."""
    import checks

    bad_reference = reference is not None and len(reference) != len(ops)
    if bad_reference:
        log(f"reference lists {len(reference)} ops, the workload has {len(ops)}")
        reference = None
    spaces = checks.SpaceCache()
    first = passes[0][1]
    op_ok = []
    for i, op in enumerate(ops):
        code, out, err = first[i][:3]
        problems = checks.check_op(op, code, out, err, spaces)
        if reference is not None and [code, _sha(out)] != reference[i]:
            problems.append("stdout or exit code differs from the reference")
        if problems:
            log(f"op {i} failed: {' '.join(op.argv)[:160]}: {'; '.join(problems)}")
            if err:
                log(err[-2000:])
        op_ok.append(not problems and not bad_reference)
    attempted = failed = 0
    for _, results in passes:
        for i, (code, out, *_) in enumerate(results):
            attempted += 1
            same = code == first[i][0] and (out == first[i][1] or out == _sha(first[i][1]))
            failed += not (op_ok[i] and same)
    return attempted, failed


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(args) -> int:
    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "assigncoh" / "__init__.py").is_file():
        log(f"error: no assigncoh sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    here = os.getcwd()
    try:
        if args.trace:
            from tracer import Tracer
            # untraced, traced, untraced: the traced pass is compared with both
            tracer = Tracer()
            ops, setup_times, passes = cycles(args.workload, args.seed, workdir,
                                              [None, tracer, None])
        else:
            ops, setup_times, passes = cycles(args.workload, args.seed, workdir,
                                              [None] * PASSES, args.seconds)
        os.chdir(workdir / "in0")
        reference = load_reference(args.workload, args.seed)
        attempted, failed = verify(ops, passes, reference, log)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    OUT.mkdir(exist_ok=True)
    if args.trace:
        sums = [sum(r[3] * PROBE_REF_S / r[4] for r in p[1]) for p in passes]
        untraced_s, traced_s = (sums[0] + sums[2]) / 2, sums[1]
        values = tracer.metrics()
        values["cli.out_bytes"] = sum(len(r[1].encode()) for r in passes[0][1])
        values["trace.overhead"] = traced_s / untraced_s - 1
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
        samples = len(ops)
        summary = [f"  ops of the traced pass {traced_s:.3f} s, of an untraced pass "
                   f"{untraced_s:.3f} s (reference seconds), "
                   f"{len(tracer.spans)} spans"]
    else:
        walls = [p[0] for p in passes]
        # each op's latency is its fastest run over the passes, in reference
        # seconds: noise only adds time, and rarely to every run of one op
        lat = [min(p[1][i][3] * PROBE_REF_S / p[1][i][4] for p in passes)
               for i in range(len(ops))]
        raw = [min(p[1][i][3] for p in passes) for i in range(len(ops))]
        values = {
            "run_s": sum(lat),
            "op_s.p50": statistics.median(lat),
            "op_s.p90": p90(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        samples = len(lat)
        notes = {
            "run_s": f"sum over the {len(ops)} ops of each op's fastest of {len(walls)} passes",
            "op_s.p50": f"{samples} samples, each an op's fastest of {len(walls)} runs",
            "op_s.p90": f"{samples} samples, each an op's fastest of {len(walls)} runs",
            "setup_s": f"median of {len(setup_times)} imports + generations, one before each pass",
        }
        summary = [f"  {k:<12} {m['value']:12.6f} {m['unit']:<3} {notes.get(k, '')}"
                   for k, m in metrics.items()]
        speed = statistics.median(r[4] for p in passes for r in p[1])
        summary.append(f"  measured     run_s {sum(raw):.6f} s before scaling; passes took "
                       + " ".join(f"{w:.3f}" for w in walls) + " s with the probes; "
                       f"median probe {speed * 1000:.3f} ms (reference {PROBE_REF_S * 1000} ms)")
        summary.append(f"  {'fail_ratio':<12} {failed / attempted:12.6f} -   "
                       f"{failed} of {attempted} ops failed")
    correct = failed == 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} cpu=\"{env['cpu']}\" nproc={env['nproc']} "
          f"reference={'checked' if reference is not None else 'none for this seed'}")
    print("\n".join(summary))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, samples=samples,
                       detail=[[r[3:5] for r in p[1]] for p in passes]), fh, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_report(args) -> int:
    """Each workload in its own process, then one table of the results."""
    rows = []
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{w}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rows.append((w, json.loads(lines[-1])))
    names = list(END_TO_END) if not args.trace else list(rows[0][1]["metrics"])
    table = [(f"{n} [{rows[0][1]['metrics'][n]['unit']}]",
              [f"{r['metrics'][n]['value']:.6g}" for _, r in rows]) for n in names]
    table.append(("fail_ratio [failed/attempted]",
                  [f"{r['failed'] / r['attempted']:.4g}" for _, r in rows]))
    table.append(("correct", [str(r["correct"]) for _, r in rows]))
    width = max(len(label) for label, _ in table) + 2
    print("\n" + "metric".ljust(width) + "".join(f"{w:>14}" for w, _ in rows))
    for label, cells in table:
        print(label.ljust(width) + "".join(f"{c:>14}" for c in cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--report", action="store_true", help="run every workload, print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.report:
        return run_report(args)
    if args.workload is None:
        ap.error("give --workload or --report")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
