"""Benchmark of the ``sympow`` CLI on named workloads of CLI jobs.

Run from the repository root::

    python3 benchmarks/run.py --workload generic --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload verify --seed 0 --seconds 60 --trace 1
    python3 benchmarks/run.py --reach          # opt-in slow rungs, one pass each

A pass runs the workload's job list back to back (a closed loop with one
client) through ``sympow.cli.run`` in a fresh worker interpreter, so every
pass pays for imports and complex building as a CLI user does.  Passes
repeat until ``--seconds`` would be exceeded.  Each pass gives ``wall_s``,
``rest_s`` (its wall time minus the rung job's), ``setup_s`` (launch to
``sympow.cli`` imported) and ``peak_rss_mb``.  Every time is clock time
minus the hypervisor steal time that accrued during it (``steal.py``), so
that other guests holding the host's CPUs do not read as a slower program;
the steal subtracted is kept in the record.  Every job's output is checked
(``check.py``); a job fails on a nonzero exit, an exception or a mismatch,
and is counted in ``failed`` out of ``attempted``.  A worker that dies or
overruns fails every job of its pass, and the run still prints its result.

``--trace 0`` reports the end-to-end metrics, each the median over the
passes of the run; ``--trace 1`` alternates untraced and traced passes
(``tracer.py``) and reports the per-layer metrics, the tracing overhead,
and that every job's stdout is byte-identical with tracing on and off.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine,
commit, job lists, medians with quartiles and sample counts, kept spans)
is written under ``.bench_out/``.  Exit status 2 means the run could not
start, for example outside a checkout with ``src/sympow``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_job, load_expected  # noqa: E402
from steal import steal_s  # noqa: E402
from workloads import DEFAULT_CELL_CAP, REACH_JOBS, WORKLOADS, Workload, base_change_cells  # noqa: E402

WORKER = HERE / "worker.py"
# A run ends within --seconds plus this grace, even if a worker hangs.
GRACE_S = 100
RECORD_DIR = ".bench_out"

# Per-layer metrics: "<span>.<field>"; field "s" is the span's inclusive time.
_SPAN_FIELDS = [
    ("groupring.mul", ("calls", "self_s")),
    ("groupring.add", ("calls", "self_s")),
    ("groupring.specialize", ("calls", "self_s")),
    ("groupring.finite_quotient", ("calls", "self_s")),
    ("dga.boundary", ("calls", "self_s")),
    ("dga.dga_mul", ("calls", "self_s")),
    ("complexes.operator_matrix", ("calls", "self_s", "entries")),
    ("complexes.build", ("self_s",)),
    ("complexes.export", ("self_s",)),
    ("complexes.specialize", ("calls", "self_s", "cells")),
    ("complexes.base_change", ("calls", "self_s", "cells")),
    ("homology.modp_rank", ("calls", "self_s", "cells", "nnz", "wait_s")),
    ("homology.generic_homology", ("trials", "self_s")),
    ("homology.smith_normal_form", ("calls", "self_s", "cells")),
    ("homology.integer_rank", ("calls", "self_s", "cells")),
    ("homology.integer_matmul", ("self_s",)),
    ("homology.modp_nullspace", ("self_s",)),
    ("homology.mod2", ("self_s",)),
] + [(f"verify.suite.{s}", ("s",)) for s in (
    "dga", "lemma-torus", "lemma-q", "lemma-cohomology", "theorem-main", "nonfg", "mattuck")] + [
    ("cli.run", ("calls", "self_s")),
]
PER_LAYER = [(f"{span}.{field}", span, field) for span, fields in _SPAN_FIELDS for field in fields]
PASS_METRICS = ("cli.pass.cpu_s", "trace.unattributed_s", "trace.overhead_s")
LAYER_UNITS = {name: "s" if field in ("s", "self_s", "wait_s") else "count"
               for name, _, field in PER_LAYER} | dict.fromkeys(PASS_METRICS, "s")
END_TO_END = {"wall_s": "s", "rest_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Bench:
    """One run: launches worker passes from the checkout at ``root``."""

    def __init__(self, root: Path, cap_cells: int):
        self.root = root
        self.cap_cells = cap_cells
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.expected = load_expected()

    def run_pass(self, argvs: list[list[str]], ran: list[int], trace: bool,
                 timeout: float | None) -> dict:
        """One pass over ``argvs[i] for i in ran`` in a fresh worker.

        If the worker overruns ``timeout``, dies or prints no report, the pass
        is marked ``broken`` and each of its jobs fails with the reason.
        """
        t0, steal0 = time.perf_counter(), steal_s()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *(["--trace"] if trace else [])],
                input=json.dumps([argvs[i] for i in ran]),
                capture_output=True, text=True, env=self.env, cwd=self.root, timeout=timeout,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            report = json.loads(proc.stdout)
        except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
            why = f"worker failed: {exc}"
            return {"broken": why, "ran": ran, "wall_s": time.perf_counter() - t0,
                    "jobs": [{"code": -1, "text": why, "wall_s": 0.0} for _ in ran]}
        report.update(setup_s=report["ready"] - t0 - (report["ready_steal"] - steal0), ran=ran)
        return report

    def refusals(self, argvs: list[list[str]]) -> dict[int, str]:
        """Jobs whose estimated dense base_change exceeds the cap, before any runs."""
        out = {}
        for i, argv in enumerate(argvs):
            cells = base_change_cells(argv)
            if cells > self.cap_cells:
                out[i] = f"refused: base_change needs about {cells} dense cells > cap {self.cap_cells}"
        return out


def _quartiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def failures(workload: Workload, seed: int, passes: list[dict], expected: dict) -> list[str]:
    """One reason per failed job over all passes.

    Each pass lists under ``ran`` the workload job indices it ran; a traced
    pass carries under ``plain`` the untraced pass whose stdout it must match.
    """
    job_seed = seed if workload.seeded else None
    reasons = []
    for p in passes:
        twin = p.get("plain", p)["jobs"]
        for i, r, u in zip(p["ran"], p["jobs"], twin):
            why = check_job(workload.jobs[i], job_seed, r["code"], r["text"], expected)
            if why is None and "broken" not in p.get("plain", {}) and r["text"] != u["text"]:
                why = "stdout differs with tracing on"
            if why:
                reasons.append(f"{workload.jobs[i].job_id}{' (traced)' if 'plain' in p else ''}: {why}")
    return reasons


def _rung_s(p: dict, rung: int) -> float:
    """Wall time of the rung job in pass ``p``; 0 if it was refused."""
    return p["jobs"][p["ran"].index(rung)]["wall_s"] if rung in p["ran"] else 0.0


def _layer_metrics(trace: dict) -> dict[str, float]:
    stats = trace["stats"]
    out = {}
    for name, span, field in PER_LAYER:
        st = stats.get(span, {})
        out[name] = st.get("total_s" if field == "s" else field, 0)
    return out


def _dominant(trace: dict) -> dict:
    stats = trace["stats"]
    total = sum(st["self_s"] for st in stats.values()) or 1.0
    by_module: dict[str, float] = {}
    for name, st in stats.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + st["self_s"]
    top = max(stats, key=lambda n: stats[n]["self_s"])
    return {
        "span": top,
        "span_share": stats[top]["self_s"] / total,
        "module_share": {m: v / total for m, v in sorted(by_module.items(), key=lambda kv: -kv[1])},
    }


def _machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(bench: Bench, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    argvs = workload.argvs(seed)
    refused = bench.refusals(argvs)
    ran = [i for i in range(len(argvs)) if i not in refused]
    rung = workload.rung_index()
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = deadline + GRACE_S
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    min_rounds = 1 if trace else 2
    while len(rounds) < min_rounds or statistics.median(rounds) <= deadline - time.perf_counter():
        t0 = time.perf_counter()
        if hard_deadline - t0 < 1:
            break
        plain.append(bench.run_pass(argvs, ran, False, hard_deadline - t0))
        if trace:
            t1 = time.perf_counter()
            traced.append(dict(bench.run_pass(argvs, ran, True, max(hard_deadline - t1, 1)),
                               plain=plain[-1]))
        rounds.append(time.perf_counter() - t0)
    passes = plain + traced
    reasons = [f"{workload.jobs[i].job_id}: {why}" for i, why in refused.items()] * len(passes)
    reasons += failures(workload, seed, passes, bench.expected)
    attempted = sum(len(p["ran"]) for p in passes) + len(refused) * len(passes)
    failed = len(reasons)
    good = [p for p in plain if "broken" not in p]
    samples = {
        "wall_s": [p["wall_s"] for p in good],
        "rest_s": [p["wall_s"] - _rung_s(p, rung) for p in good],
        "setup_s": [p["setup_s"] for p in good],
        "peak_rss_mb": [p["peak_rss_mb"] for p in good],
    }
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "jobs": argvs, "rung": argvs[rung], "passes": len(plain),
        "measured_s": time.perf_counter() - start,
        "attempted": attempted, "failed": failed, "failures": reasons,
        "failed_ratio": failed / attempted,
        "end_to_end": {k: dict(_quartiles(v), unit=END_TO_END[k]) for k, v in samples.items()},
        "steal_s": _quartiles([p["steal_s"] for p in good]),
        "job_wall_s": {workload.jobs[i].job_id: _quartiles([p["jobs"][pos]["wall_s"] for p in good])
                       for pos, i in enumerate(ran)},
    }
    if trace:
        per_pass = []
        pairs = [(u, t) for u, t in zip(plain, traced) if "broken" not in u and "broken" not in t]
        for u, t in pairs:
            m = _layer_metrics(t["trace"])
            m["cli.pass.cpu_s"] = u["cpu_s"]
            m["trace.unattributed_s"] = t["clock_s"] - t["trace"]["top_level_s"]
            m["trace.overhead_s"] = t["wall_s"] - u["wall_s"]
            per_pass.append(m)
        record["per_layer"] = {name: dict(_quartiles([m[name] for m in per_pass]), unit=unit)
                               for name, unit in LAYER_UNITS.items()}
        if pairs:
            record["dominant"] = _dominant(pairs[-1][1]["trace"])
            record["spans"] = pairs[-1][1]["trace"]["spans"]
    return record


def _print_summary(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} passes={record['passes']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed_ratio']:.4f}")
    for reason in record["failures"][:20]:
        print(f"#   FAIL {reason}")
    for name, q in record["end_to_end"].items():
        if q["n"]:
            print(f"#   {name:<12} median {q['median']:.4f} {q['unit']}  "
                  f"[q1 {q['q1']:.4f}, q3 {q['q3']:.4f}]  n={q['n']}")
    if "dominant" in record:
        dom = record["dominant"]
        shares = ", ".join(f"{m} {v:.1%}" for m, v in dom["module_share"].items())
        print(f"#   dominant span {dom['span']} ({dom['span_share']:.1%} of self time); modules: {shares}")
        for name in PASS_METRICS:
            print(f"#   {name:<22} {record['per_layer'][name]['median']:.4f} s")


def _write_record(root: Path, name: str, record: dict) -> None:
    out = root / RECORD_DIR
    out.mkdir(exist_ok=True)
    with open(out / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def run_reach(bench: Bench) -> tuple[dict, int, int]:
    """Each opt-in reach rung once, in its own worker; refused over the cap."""
    workload = Workload("reach", "opt-in slow rungs", False, REACH_JOBS)
    argvs = workload.argvs(0)
    refused = bench.refusals(argvs)
    metrics, reasons = {}, []
    for i, job in enumerate(REACH_JOBS):
        if i in refused:
            reasons.append(f"{job.job_id}: {refused[i]}")
            continue
        r = bench.run_pass(argvs, [i], False, None)["jobs"][0]
        metrics[job.job_id] = {"value": r["wall_s"], "unit": "s"}
        why = check_job(job, None, r["code"], r["text"], bench.expected)
        if why:
            reasons.append(f"{job.job_id}: {why}")
        print(f"# {job.job_id}: {r['wall_s']:.3f} s {'FAIL' if why else 'ok'}")
    for reason in reasons:
        print(f"#   FAIL {reason}")
    return metrics, len(argvs), len(reasons)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reach", action="store_true", help="run the opt-in reach rungs instead")
    args = parser.parse_args(argv)
    if not args.reach and args.workload is None:
        parser.error("--workload is required unless --reach is given")

    root = Path.cwd()
    if not (root / "src" / "sympow" / "cli.py").is_file():
        print(f"error: no src/sympow/cli.py under {root}; run from a sympow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the cell estimate builds small complexes
    bench = Bench(root, DEFAULT_CELL_CAP)

    if args.reach:
        metrics, attempted, failed = run_reach(bench)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0

    record = run_workload(bench, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record.update(machine=_machine(), commit=_commit(root))
    _print_summary(record)
    _write_record(root, f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    if args.trace:
        metrics = {name: {"value": q["median"], "unit": q["unit"]}
                   for name, q in record["per_layer"].items()}
    else:
        metrics = {name: {"value": q["median"], "unit": q["unit"]}
                   for name, q in record["end_to_end"].items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
