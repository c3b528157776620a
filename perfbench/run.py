#!/usr/bin/env python3
"""rfhquad benchmark: closed-loop workloads against the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload briefly, both modes

Load model: one process, one client, no extra threads.  The next op
starts when the previous op and its output check have ended.  BLAS is
pinned to one thread before numpy is imported.  Timed latencies are
scaled by a reference job run between the ops (calibrate.py), which
takes out the drift in the speed of a shared machine.

--trace 0 prints the end-to-end metrics of the named workload, from
untraced passes.  --trace 1 prints the per-layer metrics of a traced run
over every workload, the tracing overhead against untraced passes over
the same ops, and the scaling sweeps.  The metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON
object; a fuller report, spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CHILDREN = 5  # set-ups timed in fresh interpreters for setup_s
MIN_PASSES = 3  # timed passes over the whole pool at the least; see run_timed
CLOCK_EVERY = 0.05  # seconds between two runs of the reference job in a timed pass
CLOCK_WINDOW = 3  # an op is scaled by the median of this many reference runs each side
CLI_SUBS = ("check", "classify", "orbits", "census", "rfh")
LOAD_MODEL = ("closed loop, one client in one process, no extra threads; the next op "
              "starts when the previous op and its check have ended")


def pin_environment() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("RFHQUAD_TOLERANCES", None)  # the package's defaults only


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    workload: object
    pool: list
    generate_s: float
    seconds: float


def setup(name: str, seed: int) -> Setup:
    """Import rfhquad from this checkout, generate the inputs, warm up."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rfhquad
    except ImportError as exc:
        raise SystemExit(f"cannot import rfhquad from {ROOT / 'src'}: {exc}") from exc
    if Path(rfhquad.__file__).resolve().parent != ROOT / "src" / "rfhquad":
        raise SystemExit(f"rfhquad imported from {rfhquad.__file__}, not from this checkout")
    import numpy as np

    import spans
    import workloads

    wl = workloads.ALL[name]
    tg = time.perf_counter()
    pool = wl.generate(np.random.default_rng([seed, list(workloads.ALL).index(name)]))
    generate_s = time.perf_counter() - tg
    off = spans.Tracer(False)
    for inp in wl.warmup(pool):  # first-call costs, such as scipy's first expm
        try:
            wl.op(off, inp)
        except Exception:
            pass
    return Setup(wl, pool, generate_s, time.perf_counter() - t0)


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its seconds, and the same scaled
    like the ops (see run_timed) by the reference job run CLOCK_WINDOW
    times just before and just after it."""
    import calibrate

    before = [calibrate.time_job() for _ in range(CLOCK_WINDOW)]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    after = [calibrate.time_job() for _ in range(CLOCK_WINDOW)]
    seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return seconds, seconds * calibrate.REFERENCE_MS / (1e3 * statistics.median(before + after))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    latencies: list = field(default_factory=list)  # seconds, one per op or per input
    starts: list = field(default_factory=list)  # perf_counter at each op's start
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: int = 0
    examples: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def failure_key(exc: BaseException) -> str:
    """module.ExceptionType, with the module the innermost rfhquad frame."""
    kind = getattr(exc, "kind", type(exc).__name__)
    module = getattr(exc, "module", "bench")
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("rfhquad."):
            module = mod.split(".", 1)[1]
        tb = tb.tb_next
    return f"{module}.{kind}"


def run_pass(st: Setup, tr, seconds: float | None = None, count: int | None = None,
             clock: list | None = None) -> Pass:
    """Ops in schedule order, for ``seconds`` of wall time or ``count`` ops.
    Every output is checked; every exception is counted, none aborts.
    With ``clock``, the reference job runs between ops every CLOCK_EVERY
    seconds and (start, seconds) of each run is appended there."""
    import calibrate
    from expected import WrongAnswer

    wl, pool, res = st.workload, st.pool, Pass()
    deadline = time.perf_counter() + (seconds or 0.0)
    next_clock = 0.0
    i = 0
    while count is None or i < count:
        if clock is not None and time.perf_counter() >= next_clock:
            clock.append((time.perf_counter(), calibrate.time_job()))
            next_clock = time.perf_counter() + CLOCK_EVERY
        inp = pool[i % len(pool)]
        tr.op = f"{wl.name}:{i}"
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.op(tr, inp)
        except Exception as exc:
            err = exc
        res.latencies.append(time.perf_counter() - t0)
        res.starts.append(t0)
        res.attempted += 1
        if err is None:
            try:
                wl.check(inp, out)
            except WrongAnswer as exc:
                err = exc
            except Exception as exc:  # a malformed output is a wrong answer too
                err = WrongAnswer(f"{type(exc).__name__}: {exc}")
            res.wrong += err is not None
        if err is not None:
            key = "check.WrongAnswer" if isinstance(err, WrongAnswer) else failure_key(err)
            res.failures[key] += 1
            res.failed_ops.add(tr.op)
            if len(res.examples) < 5:
                res.examples.append(f"op {i}: {key}: {str(err)[:300]}")
        i += 1
        if count is None and time.perf_counter() >= deadline:
            break
    return res


def run_timed(st: Setup, seconds: float) -> tuple[Pass, Pass, list]:
    """Passes over the whole pool, in order, while the fastest pass so far
    still fits in ``seconds``, and at least MIN_PASSES of them, with the
    reference job run between ops (see calibrate.py).  Each op's latency
    is scaled by REFERENCE_MS over the median time of the CLOCK_WINDOW
    reference runs on each side of it: the machine's speed drifts within
    a second, and the job clocks it where the op ran.  An input's latency
    is the median of its scaled passes.  Every execution is checked and
    counted.  Returns the merged pass, the same merged from unscaled
    latencies, and the reference-job times in ms."""
    import calibrate
    import spans

    off = spans.Tracer(False)
    end = time.perf_counter() + seconds
    runs, clock, fastest = [], [], float("inf")
    while len(runs) < MIN_PASSES or time.perf_counter() + fastest <= end:
        t0 = time.perf_counter()
        runs.append(run_pass(st, off, count=len(st.pool), clock=clock))
        fastest = min(fastest, time.perf_counter() - t0)
    failures = Counter()
    for r in runs:
        failures.update(r.failures)
    clock_at = [t for t, _ in clock]

    def scale(t0, latency):
        j = bisect.bisect(clock_at, t0)
        near = [d for _, d in clock[max(0, j - CLOCK_WINDOW):j + CLOCK_WINDOW]]
        return latency * calibrate.REFERENCE_MS / (1e3 * statistics.median(near))

    def merged(latencies):
        return Pass(latencies=[statistics.median(ts) for ts in zip(*latencies)],
                    attempted=sum(r.attempted for r in runs), failures=failures,
                    wrong=sum(r.wrong for r in runs), examples=runs[0].examples)

    scaled = merged([scale(t0, t) for t0, t in zip(r.starts, r.latencies)] for r in runs)
    return scaled, merged(r.latencies for r in runs), [1e3 * d for _, d in clock]


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    s = sorted(latencies)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(res: Pass, setup_s: float) -> dict:
    value, _ = tail(res.latencies)
    return {
        "ops_per_s": len(res.latencies) / sum(res.latencies),
        "op_p50_ms": 1e3 * statistics.median(res.latencies),
        "op_tail_ms": 1e3 * value,
        "ok_ratio": (res.attempted - res.failed) / res.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


LAYERS = ("symlin.spectrum_with_jordan", "hormander.classify", "tentacular.validate",
          "orbits.census", "czindex.cz_index_path", "czindex.cz_index_data",
          "rfh.generator_census", "rfh.rfh_report", "rfh.solve_exact_sequence",
          "oracles.oracle_cz") + tuple(f"cli.main.{s}" for s in CLI_SUBS)


def per_layer(stats, failed_ops: set, overhead: dict, generate_s: float, sweeps: dict,
              probe: Pass) -> dict:
    """Every per-layer value the traced run can give; BENCHMARK.json picks.
    overhead maps a workload to its (traced, untraced) seconds."""
    from spans import LayerStats

    m = {}
    for name in LAYERS:
        s = stats.get(name, LayerStats())
        m[f"{name}.calls"] = s.calls
        m[f"{name}.busy_ms"] = 1e3 * s.busy
        m[f"{name}.self_ms"] = 1e3 * s.self_time
        m[f"{name}.failed"] = s.failed
        if name.startswith("cli.main."):  # the subcommand's time outside its library calls
            m[f"{name}.overhead_ms"] = 1e3 * s.self_time
    cls = stats.get("hormander.classify", LayerStats())
    for kind in ("ClusterAmbiguous", "InternalError"):
        m[f"hormander.classify.failed.{kind}"] = cls.errors[kind]
    m["hormander.classify.failed.other"] = cls.failed - sum(
        cls.errors[k] for k in ("ClusterAmbiguous", "InternalError"))

    def per_call(layer, attr):
        s = stats.get(layer, LayerStats())
        return s.attrs[attr] / s.calls if s.calls else 0.0

    m["orbits.families"] = per_call("rfh.generator_census", "families")
    m["czindex.distinct_eta"] = per_call("rfh.generator_census", "distinct_eta")
    m["rfh.generators"] = per_call("rfh.generator_census", "generators")
    m["czindex.crossings_per_eta"] = per_call("czindex.cz_index_path", "crossings")
    oracle_ops = stats.get("oracles.oracle_cz", LayerStats()).ops
    m["oracles.agree_ratio"] = (len(oracle_ops - failed_ops) / len(oracle_ops)
                                if oracle_ops else 0.0)
    m["probe.jordan2.failed_ratio"] = probe.failed / probe.attempted
    m["samples.generate_ms"] = 1e3 * generate_s
    for name, (traced, untraced) in overhead.items():
        m[f"trace.overhead_ratio.{name}"] = traced / untraced
    m["trace.overhead_ratio"] = (sum(t for t, _ in overhead.values())
                                 / sum(u for _, u in overhead.values()))
    for name, sweep in sweeps.items():
        m[name] = sweep["slope"]
    return m


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(seed: int, spec: dict, name: str) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    uname = os.uname()
    return {
        "seed": seed,
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "load_model": LOAD_MODEL,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": {"system": uname.sysname, "release": uname.release,
                    "arch": uname.machine, "cpus": os.cpu_count()},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"},
    }


def emit(spec: dict, kind: str, values: dict, res: Pass, report: dict) -> dict:
    """Print the metrics named in BENCHMARK.json, write the report, and
    return the result object; a metric the spec names but the run did not
    produce is an error."""
    declared = spec[kind]
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, mv in metrics.items():
        print(f"  {name:<44} {mv['value']:>14.6g} {mv['unit']}")
    print(f"  attempted {res.attempted}, failed {res.failed} "
          f"(failed_ratio {res.failed / res.attempted:.4f} of {res.attempted}), "
          f"wrong answers {res.wrong}")
    for key, count in sorted(res.failures.items()):
        print(f"    failed {key}: {count}")
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    prov = report["provenance"]
    path = OUT / f"{prov['workload']}-seed{prov['seed']}-{kind}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    print(f"  report: {path.relative_to(ROOT)}")
    return {"correct": res.wrong == 0, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def describe(args, spec: dict) -> dict:
    """Print the provenance; it imports numpy, so call it after set-up."""
    prov = provenance(args.seed, spec, args.workload)
    for key in ("why", "load_model", "blas_threads", "machine", "versions"):
        print(f"  {key}: {prov[key]}")
    return {"provenance": prov}


def run(args, spec: dict) -> dict:
    print(f"rfhquad benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    if args.trace:
        return run_traced(args, spec)
    st = setup(args.workload, args.seed)
    report = describe(args, spec)
    res, raw, clock = run_timed(st, args.seconds)
    passes = res.attempted // len(res.latencies)
    raw_setups, setups = zip(*(setup_in_child(args.workload, args.seed)
                               for _ in range(SETUP_CHILDREN)))
    values = end_to_end(res, statistics.median(setups))
    value, pct = tail(res.latencies)
    print(f"  samples {len(res.latencies)} inputs x {passes} passes; op_tail_ms is p{pct:.2f}; "
          f"setup_s is the median of {len(setups)} scaled set-ups in fresh interpreters "
          f"{[round(s, 4) for s in setups]}")
    raw_values = end_to_end(raw, statistics.median(raw_setups))
    print("  unscaled: " + ", ".join(f"{k} {raw_values[k]:.6g}"
                                     for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s"))
          + f" (in this process {st.seconds:.4f} s)"
          + f"; reference job {statistics.median(clock):.4f} ms median of {len(clock)} runs")
    report.update(samples=len(res.latencies), passes=passes, tail_percentile=pct, setups=setups,
                  unscaled_setups=raw_setups, in_process_setup=st.seconds,
                  unscaled=raw_values, reference_ms=clock,
                  failures=dict(res.failures), examples=res.examples,
                  latencies_ms=[round(1e3 * t, 4) for t in res.latencies])
    return emit(spec, "end_to_end", values, res, report)


def run_traced(args, spec: dict) -> dict:
    """The per-layer run.  Each layer is exercised by a different workload,
    so a traced run covers the whole suite whichever --workload it is
    given: every workload gets an equal share of half of --seconds traced,
    then an untraced pass over the same ops for the overhead ratio; then
    the Jordan-size-2 probe and the scaling sweeps.  Span op ids name the
    workload."""
    names = [w["name"] for w in spec["workloads"]]
    setups = [setup(name, args.seed) for name in names]
    report = describe(args, spec)
    import spans
    import sweeps
    import workloads

    tr = spans.Tracer(True)
    total = Pass()
    overhead, generate_s, by_workload = {}, 0.0, {}
    for name, st in zip(names, setups):
        generate_s += st.generate_s
        first = len(tr.spans)
        res = run_pass(st, tr, seconds=args.seconds / (2 * len(names)))
        plain = run_pass(st, spans.Tracer(False), count=res.attempted)
        overhead[name] = (sum(res.latencies), sum(plain.latencies))
        total.attempted += res.attempted
        total.failures.update(res.failures)
        total.failed_ops |= res.failed_ops
        total.wrong += res.wrong + plain.wrong
        total.examples += res.examples
        by_workload[name] = {
            "ops": res.attempted, "failures": dict(res.failures),
            "traced_s": overhead[name][0], "untraced_s": overhead[name][1],
            "layers": {k: {"calls": v.calls, "busy_ms": 1e3 * v.busy, "self_ms": 1e3 * v.self_time,
                           "failed": v.failed, "errors": dict(v.errors)}
                       for k, v in spans.layer_stats(tr.spans[first:]).items()}}
        print(f"  traced {name}: {res.attempted} ops, {res.failed} failed, "
              f"traced/untraced {overhead[name][0]:.3f} s / {overhead[name][1]:.3f} s")
    probe_st = setup(workloads.PROBE.name, args.seed)
    probe = run_pass(probe_st, tr, count=len(probe_st.pool))
    print(f"  {workloads.PROBE.name}: {probe.failed} of {probe.attempted} ops failed "
          f"({probe.wrong} wrong answers): "
          + ", ".join(f"{k} {v}" for k, v in sorted(probe.failures.items())))
    sw = sweeps.run_all(args.seed)
    for name, sweep in sw.items():
        print(f"  sweep {name}: slope {sweep['slope']:.3f} over {sweep['points']}")
    values = per_layer(spans.layer_stats(tr.spans), total.failed_ops, overhead, generate_s, sw,
                       probe)
    report.update(workloads=by_workload, sweeps=sw, probe=dict(probe.failures),
                  spans_columns=["sid", "name", "op", "parent", "start", "end", "error", "attrs"],
                  spans=[s.as_row() for s in tr.spans])
    return emit(spec, "per_layer", values, total, report)


def smoke(seed: int) -> int:
    """Every workload for one second in both modes; every named metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                assert proc.returncode == 0, f"exit {proc.returncode}"
                assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
                names = {d["name"] for d in spec[kind]}
                assert set(out["metrics"]) == names, sorted(names ^ set(out["metrics"]))
                status = f"ok: {out['attempted']} ops, {out['failed']} failed"
            except (AssertionError, IndexError, json.JSONDecodeError) as exc:
                status = f"FAILED: {exc!r}; stderr tail: {proc.stderr[-500:]}"
                bad.append((w["name"], trace))
            print(f"smoke {w['name']:<18} trace {trace}: {status}", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=smoke.__doc__)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    pin_environment()
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed).seconds}))
        return 0
    result = run(args, spec)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
