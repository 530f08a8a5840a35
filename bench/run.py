"""Seeded benchmark of beliefcontracts: one command, three closed-loop workloads.

    python3 bench/run.py --workload solve_mix --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it finds ``src/`` next to ``bench/``.
Each workload is a closed loop with one caller: the next op starts when the
previous one returns.

``solve_mix``   one ``solve_second_best`` per op on a fresh, unrelated instance
``driver_mix``  one driver answer per op (sweeps, regime detection, the spread
                decomposition, action choice, closed-form sweeps, grid oracle)
``cli_cold``    one ``python -m beliefcontracts.cli`` subprocess per op

The loop runs in a worker process.  For op i it builds the op's input from
the seed, times the op, checks the answer (``checks``) and streams the
verdict back; only the op itself is timed.  An op that does not come back
within ``HANG_S`` (some inputs make LAPACK loop forever inside the solver)
is recorded as failed with verdict ``hang``; the worker is replaced and the
loop goes on with the next op.  ``--seconds`` is the total time spent
inside ops.  Every time reported is scaled to the nominal speed of a
reference clock sampled next to the ops (``refclock``); the raw times go to
the detailed record.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the op sequence twice, untraced for the first half of
the time and with every layer wrapped for the second, and reports per-layer
metrics from the traced half; ``trace.overhead_share`` compares the two
halves on the ops both ran.  The last line of stdout is the JSON result; a
detailed record goes to ``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("solve_mix", "driver_mix", "cli_cold")
#: the reference clock (``refclock``) that scales each workload's times
REFERENCE = {"solve_mix": "kernel", "driver_mix": "kernel", "cli_cold": "startup"}
WARMUP_OPS = {"solve_mix": 12, "driver_mix": 9, "cli_cold": 1}
#: setup_s parses the problems of ops 0 .. SETUP_PROBLEMS - 1
SETUP_PROBLEMS = 200
SETUP_REPS = 7
#: an op (with its check) that takes longer than this is declared hung
HANG_S = 15.0
#: CLI children time out first, so a worker never leaves one behind
CLI_TIMEOUT_S = 10.0
WORKER_SETUP_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_DRIVERS = ("sweep", "detect_regime_change", "outer_minimize", "choose_action")


def declared_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdin: str | None = None,
              timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one Python child from the checkout root and wait for it to end."""
    return subprocess.run([sys.executable, *argv], input=stdin.encode() if stdin else None,
                          capture_output=True, cwd=ROOT, env=child_env(), timeout=timeout)


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def run_context() -> dict:
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg_start": loadavg(),
    }


# --------------------------------------------------------------------------
# workloads: case(i) builds op i's input from the seed (untimed); op(case) is
# the timed call; check(case, outcome) is the independent verdict
# --------------------------------------------------------------------------

def family_label(family: int) -> str:
    import workloads as W

    name, params = W.FAMILIES[family]
    return name + (str(params["gamma"]) if name == "crra" else "")


def group_key(name: str, i: int) -> str:
    """The group op i's verdict is broken down by."""
    import workloads as W

    if name == "solve_mix":
        if i == 0:
            return "ill_conditioned_log"
        S, A, family = W.solve_mix_shape(i)
        return f"S{S}xA{A}/{family_label(family)}"
    if name == "driver_mix":
        return W.DRIVER_KINDS[i % len(W.DRIVER_KINDS)]
    return W.CLI_COMMANDS[i % len(W.CLI_COMMANDS)]


def _target(doc: dict) -> str:
    return max(doc["actions"], key=lambda a: a["cost"])["name"]


def lp_reference(docs: list[dict]) -> list[bool]:
    """Strict-interior feasibility of each solve_mix program, from lpref.py."""
    items = [{"problem": d, "target": _target(d)} for d in docs]
    done = run_child([str(BENCH / "lpref.py")], stdin=json.dumps(items), timeout=170.0)
    if done.returncode != 0:
        raise RuntimeError("LP reference failed: " + done.stderr.decode(errors="replace"))
    return json.loads(done.stdout)


class SolveMix:
    def __init__(self, seed: int):
        import beliefcontracts as bc

        self.bc, self.seed = bc, seed

    def case(self, i: int) -> dict:
        import workloads as W

        doc = W.solve_mix_doc(self.seed, i)
        return {"inst": self.bc.parse_problem(W.dumps(doc)), "target": _target(doc)}

    def op(self, case):
        return self.bc.solve_second_best(case["inst"], case["target"])

    def check(self, case, outcome) -> str:
        """An Infeasible stays pending; the parent asks the LP reference after the run."""
        import checks

        return checks.check_solve(case["inst"], case["target"], outcome, lp_feasible=None)


class DriverMix:
    def __init__(self, seed: int):
        import beliefcontracts as bc
        import workloads as W

        self.bc, self.seed = bc, seed
        self.sweep_points = W.SWEEP_POINTS

    def case(self, i: int) -> dict:
        import workloads as W

        spec = W.driver_op(self.seed, i)
        return dict(spec, inst=self.bc.parse_problem(W.dumps(spec["problem"])))

    def _grid(self, case):
        import numpy as np

        return [float(x) for x in np.linspace(0.0, case["eps_max"], self.sweep_points)]

    def op(self, case):
        bc = self.bc
        inst, kind = case["inst"], case["kind"]
        if kind in ("sweep_second_best", "sweep_first_best"):
            solver = bc.SolverKind.SECOND_BEST if kind == "sweep_second_best" else bc.SolverKind.FIRST_BEST
            return bc.sweep(inst, "H", bc.Party.PRINCIPAL, "H", case["s"], case["s_prime"],
                            self._grid(case), solver)
        if kind == "detect_regime_change":
            tilt = bc.BeliefTilt(bc.Party.PRINCIPAL, "H", case["s"], case["s_prime"])
            return bc.detect_regime_change(inst, tilt, case["eps_max"], target="H")
        if kind == "equivalence_report":
            return bc.equivalence_report(bc.SpreadProblem(inst, "H"))
        if kind.startswith("choose_action"):
            return bc.choose_action(inst)
        if kind == "cara_compstat":
            high, low = inst.action("H"), inst.action("L")
            system = bc.CaraSystem(high.agent_beliefs, low.agent_beliefs, high.principal_beliefs,
                                   high.cost - low.cost, inst.reservation_utility + low.cost)
            return bc.cara_compstat(system, case["s"], case["s_prime"], self._grid(case))
        return self._oracle_audit(inst, case["points"])

    def _oracle_audit(self, inst, points: int):
        """The grid the CLI picks by default: the solved utilities +- 35% of their span."""
        import numpy as np

        bc = self.bc
        sol = bc.solve_second_best(inst, "H")
        vs = np.asarray(sol.utility_levels)
        span = max(float(vs.max() - vs.min()), 0.1)
        v_lo, v_hi = float(vs.min() - 0.35 * span), float(vs.max() + 0.35 * span)
        lo_r, hi_r = inst.utility.utility_range
        if np.isfinite(lo_r):
            v_lo = max(v_lo, lo_r + 0.05 * span)
        if np.isfinite(hi_r):
            v_hi = min(v_hi, hi_r - 0.05 * span)
        return bc.oracle_audit(inst, "H", bc.GridSpec(v_lo, v_hi, points))

    def _cara_reference(self, case):
        """(wages, coincides_with_first_best) of the numeric solve at each grid
        point, or the exception one of those solves raised."""
        import checks

        rows = []
        try:
            for e in self._grid(case):
                tilted = checks.tilt_principal(case["inst"], "H", case["s"], case["s_prime"], e)
                sol = self.bc.solve_second_best(tilted, "H")
                rows.append((sol.wages, sol.coincides_with_first_best))
        except Exception as exc:     # the reference solves are the program's too
            return exc
        return rows

    def check(self, case, outcome) -> str:
        import checks

        bc = self.bc
        inst, kind = case["inst"], case["kind"]
        if kind.startswith("sweep"):
            return checks.check_sweep(outcome)
        if kind.startswith("oracle_audit"):
            return checks.check_oracle(outcome)
        if kind == "cara_compstat":
            return checks.check_cara(outcome, self._cara_reference(case))
        if isinstance(outcome, BaseException):
            return checks.outcome_label(outcome)
        if kind.startswith("choose_action"):
            return checks.check_choose(outcome, inst, checks.choose_reference(inst))
        try:
            if kind == "detect_regime_change":
                def flag(eps):
                    return checks.coincides(inst, "H", case["s"], case["s_prime"], eps)
                return checks.check_detect(outcome, flag, case["eps_max"])
            direct_cost = bc.solve_second_best(inst, "H").expected_cost_principal
        except Exception:    # the reference solves are the program's too
            return "reference_failed"
        return checks.check_equivalence(outcome, direct_cost)


class CliCold:
    def __init__(self, seed: int):
        from beliefcontracts import cli

        self.cli, self.seed = cli, seed
        self.folder = WORK / "cli" / f"seed{seed}"
        self.folder.mkdir(parents=True, exist_ok=True)

    def case(self, i: int) -> dict:
        """The command line of op i, its problem file written, and the stdout
        that cli.main prints for it in-process."""
        import workloads as W

        spec = W.cli_op(self.seed, i)
        argv = [spec["command"]]
        if "problem" in spec:
            path = self.folder / f"op{i}.json"
            path.write_text(W.dumps(spec["problem"]), encoding="utf-8")
            argv += ["--problem", str(path.relative_to(ROOT))]
        argv += spec["args"]
        return {"argv": argv, "expected": self.in_process(argv)}

    def in_process(self, argv: list[str]) -> tuple[int, bytes]:
        """cli.main in this process, with stdout captured, from the checkout root.

        An exception that cli.main lets through ends a real CLI process with
        exit code 1, so it is reported as that.
        """
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except Exception:    # the program's own failure, judged by the check
            code = 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode("utf-8")

    def op(self, case):
        try:
            done = run_child(["-m", "beliefcontracts.cli", *case["argv"]], timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return done.returncode, done.stdout

    def check(self, case, outcome) -> str:
        import checks

        if outcome is None:
            return "hang"
        if isinstance(outcome, BaseException):
            return checks.outcome_label(outcome)
        code, stdout = outcome
        return checks.check_cli(code, stdout, case["expected"])


WORKLOAD_CLASSES = {"solve_mix": SolveMix, "driver_mix": DriverMix, "cli_cold": CliCold}


# --------------------------------------------------------------------------
# worker process: runs ops from ``start`` until ``budget`` seconds of op
# time are spent, samples the reference clock between ops, checks each op,
# and streams reference samples and (i, start, latency, verdict, layer
# counts) to the parent
# --------------------------------------------------------------------------

def worker_main() -> None:
    """Worker entry (``run.py --worker``): the job arrives as JSON on stdin,
    messages leave as JSON lines on the inherited descriptor ``job["fd"]``
    (LAPACK prints its own errors on stdout, so stdout is not used)."""
    job = json.load(sys.stdin)
    name, start, budget, traced = job["name"], job["start"], job["budget"], job["traced"]
    conn = os.fdopen(job["fd"], "w", buffering=1)

    def send(*msg):
        conn.write(json.dumps(msg) + "\n")

    sys.path.insert(0, str(SRC))
    import refclock

    workload = WORKLOAD_CLASSES[name](job["seed"])
    reference = REFERENCE[name]
    if job["warmup"]:
        for i in range(WARMUP_OPS[name]):
            try:
                workload.op(workload.case(i))
            except Exception:    # warm-up outcomes are not measured
                pass
        refclock.sample(reference)
    tracer = probe = None
    if traced:
        import spans

        tracer = spans.Tracer()
        probe = LayerProbe(name, workload, tracer)
        tracer.install()
    send("ready")
    used, last_sample = 0.0, float("-inf")
    i = start
    try:
        while used < budget:
            first_span = len(tracer.start) if tracer else 0
            case = workload.case(i)
            if tracer:
                # building the input is the benchmark's work, not the op's
                tracer.truncate(first_span)
            if time.perf_counter() - last_sample >= refclock.EVERY_S[reference]:
                last_sample = time.perf_counter()
                send("ref", last_sample, refclock.sample(reference))
            t0 = time.perf_counter()
            try:
                if tracer:
                    tracer.op_id = i
                    with tracer.span("op"):
                        outcome = workload.op(case)
                else:
                    outcome = workload.op(case)
            except Exception as exc:     # judged by the checks like any other outcome
                outcome = exc
            latency = time.perf_counter() - t0
            used += latency
            counts = probe.after_op(case, outcome, first_span) if tracer else None
            checked_from = len(tracer.start) if tracer else 0
            try:
                label = workload.check(case, outcome)
            except Exception as exc:     # reported as a run that is not correct
                label = "unchecked:" + type(exc).__name__
            if tracer:
                # the check's own solves are not the op's work
                tracer.truncate(checked_from)
            send("op", i, t0, latency, label, counts)
            i += 1
    finally:
        if tracer:
            tracer.uninstall()
    spans_file = None
    if tracer:
        WORK.mkdir(parents=True, exist_ok=True)
        spans_file = WORK / f"spans-{name}-{job['segment']}.npz"
        tracer.save(spans_file)
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    send("end", resource.getrusage(who).ru_maxrss, str(spans_file) if spans_file else None)
    conn.close()


class LayerProbe:
    """Per-op layer counts from the spans one traced op left behind."""

    def __init__(self, name: str, workload, tracer):
        self.name, self.workload, self.tracer = name, workload, tracer

    def after_op(self, case, outcome, first: int) -> dict:
        tracer = self.tracer
        counts: Counter = Counter()
        if self.name == "cli_cold":
            for probe, argv in (("interpreter", ["-c", "pass"]),
                                ("import", ["-c", "import beliefcontracts.cli"])):
                t0 = time.perf_counter()
                with tracer.span(f"cli.{probe}"):
                    run_child(argv, timeout=CLI_TIMEOUT_S)
                counts[f"probe.{probe}"] = time.perf_counter() - t0
            with tracer.span("cli.main"):
                self.workload.in_process(case["argv"])
            if isinstance(outcome, tuple):
                counts["bytes_out"] = len(outcome[1])
        counts.update(span_counts(tracer, first))
        return dict(counts)


def span_counts(tracer, first: int) -> Counter:
    """Count, self time, detail and errors per span name for spans [first, end)."""
    import spans

    names = tracer.names
    name = tracer.name[first:]
    parent = [p - first if p >= first else -1 for p in tracer.parent[first:]]
    selfs = spans.self_times(parent, tracer.start[first:], tracer.end[first:])
    out: Counter = Counter()
    for j, nid in enumerate(name):
        n = names[nid]
        out["count|" + n] += 1
        out["self|" + n] += selfs[j]
        out["detail|" + n] += tracer.detail[first + j]
        if parent[j] >= 0 and names[name[parent[j]]] == "active_set" and n in spans.SOLVER_SPANS:
            out["working_sets"] += 1
    for idx, cls in tracer.errors.items():
        if idx >= first:
            out[f"error|{names[tracer.name[idx]]}|{cls}"] += 1
    for j, solves in spans.top_level_solves(names, name, parent).items():
        out["solves|" + names[name[j]]] += solves
    return out


def _is_time(key: str) -> bool:
    """Layer counts that are times; they are scaled like the op's latency."""
    return key.startswith(("self|", "probe."))


# --------------------------------------------------------------------------
# parent: orchestration, watchdog, scaling, metrics
# --------------------------------------------------------------------------

class Lines:
    """JSON lines from a pipe, with a timeout per line."""

    def __init__(self, fd: int):
        self.fd, self.buf = fd, b""

    def get(self, timeout: float):
        """The next message; None on timeout; EOFError when the writer is gone."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_pass(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run ops 0, 1, ... for ``seconds`` of op time, replacing hung workers.

    ``ops`` maps op id to (start, latency, verdict), with no start or
    latency for a hang; ``refs`` holds the reference samples (moment, time).
    """
    ops: dict[int, tuple] = {}
    counts: dict[int, dict] = {}
    refs: list[tuple[float, float]] = []
    rss_kib = []
    used, start, segment = 0.0, 0, 0
    while used < seconds:
        read_fd, write_fd = os.pipe()
        job = {"name": name, "seed": seed, "start": start, "budget": seconds - used,
               "traced": traced, "warmup": segment == 0, "segment": segment, "fd": write_fd}
        proc = subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--worker"],
                                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, cwd=ROOT,
                                env=child_env(), pass_fds=(write_fd,))
        os.close(write_fd)
        lines = Lines(read_fd)
        verdict = "worker_died"
        nxt = start
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
            try:
                ready = lines.get(WORKER_SETUP_TIMEOUT_S)
            except EOFError:
                ready = None
            if ready is None:
                raise RuntimeError(f"{name} worker failed before its first op")
            while True:
                msg = lines.get(HANG_S)
                if msg is None:
                    verdict = "hang"
                    break
                if msg[0] == "end":
                    rss_kib.append(msg[1])
                    verdict = None
                    break
                if msg[0] == "ref":
                    refs.append((msg[1], msg[2]))
                    continue
                _, i, t0, latency, label, op_counts = msg
                ops[i] = (t0, latency, label)
                used += latency
                if op_counts:
                    counts[i] = op_counts
                nxt = i + 1
        except EOFError:
            pass
        finally:
            if proc.poll() is None and verdict is not None:
                proc.kill()
            proc.wait()
            os.close(read_fd)
        if verdict is None:
            break
        ops[nxt] = (None, None, verdict)
        start, segment = nxt + 1, segment + 1
    return {"ops": ops, "counts": counts, "refs": sorted(refs), "rss_kib": rss_kib}


def resolve_lp(run: dict, seed: int) -> None:
    """Judge the pass's Infeasible refusals by the LP reference, in one child."""
    import checks
    import workloads as W

    pending = [i for i, (_, _, label) in run["ops"].items() if label == checks.LP_PENDING]
    if not pending:
        return
    feasible = lp_reference([W.solve_mix_doc(seed, i) for i in pending])
    for i, lp in zip(pending, feasible):
        t0, latency, _ = run["ops"][i]
        run["ops"][i] = (t0, latency, checks.lp_verdict(lp))


def scale_factors(run: dict, reference: str) -> dict[int, float]:
    """Reference-clock factor of each timed op, at the op's midpoint."""
    import refclock

    return {i: refclock.factor(run["refs"], t0 + latency / 2, reference)
            for i, (t0, latency, _) in run["ops"].items() if latency is not None}


def latencies(run: dict, factors: dict[int, float] | None = None) -> dict[int, float]:
    """Op id -> latency in seconds, scaled by ``factors`` when given."""
    return {i: latency * (factors[i] if factors else 1.0)
            for i, (_, latency, _) in run["ops"].items() if latency is not None}


def layer_counts(run: dict, factors: dict[int, float]) -> Counter:
    """The traced ops' layer counts summed, with times scaled like latencies."""
    total: Counter = Counter()
    for i, counts in run["counts"].items():
        total.update({k: v * factors[i] if _is_time(k) else v for k, v in counts.items()})
    return total


def measure_setup(name: str, seed: int) -> dict:
    """setup_s: ``import beliefcontracts`` plus parsing the problems of the
    workload's first SETUP_PROBLEMS ops, in a fresh interpreter, SETUP_REPS
    times after one warm-up; each rep scaled by the start-up reference
    clock, the median reported."""
    import refclock
    import workloads as W

    texts = [W.dumps(d) for d in (W.op_problem(name, seed, i) for i in range(SETUP_PROBLEMS)) if d]
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"setup-{name}-seed{seed}.json"
    path.write_text(json.dumps(texts), encoding="utf-8")
    probe = ("import json, sys, time\n"
             "texts = json.load(open(sys.argv[1]))\n"
             "t = time.perf_counter()\n"
             "import beliefcontracts\n"
             "for text in texts:\n"
             "    beliefcontracts.parse_problem(text)\n"
             "print(repr(time.perf_counter() - t))\n")
    run_child(["-c", probe, str(path)])
    refs, reps = [], []
    for _ in range(SETUP_REPS):
        refs.append((time.perf_counter(), refclock.sample("startup")))
        t0 = time.perf_counter()
        done = run_child(["-c", probe, str(path)])
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: " + done.stderr.decode(errors="replace"))
        reps.append((t0, float(done.stdout)))
    refs.append((time.perf_counter(), refclock.sample("startup")))
    scaled = [raw * refclock.factor(refs, t, "startup") for t, raw in reps]
    return {"setup_s": statistics.median(scaled), "scaled_s": scaled,
            "raw_s": [raw for _, raw in reps], "problems": len(texts)}


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(run: dict, latency: dict[int, float], setup_s: float) -> dict:
    import checks

    timed = list(latency.values())
    passed = sum(1 for _, _, label in run["ops"].values() if label in checks.PASS_LABELS)
    lat_ms = [x * 1e3 for x in timed]
    return {
        "answers_per_s": passed / sum(timed),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "answered_share": passed / len(run["ops"]),
        "setup_s": setup_s,
        "peak_rss_mib": max(run["rss_kib"], default=0) / 1024.0,
    }


def layer_metrics(counts: Counter, n_ops: int) -> dict:
    """Per-op layer metrics from the summed per-op span counts."""
    per = max(n_ops, 1)

    def total(kind, prefix):
        return sum(v for k, v in counts.items() if k.startswith(kind + "|")
                   and (k == f"{kind}|{prefix}" or k.startswith(f"{kind}|{prefix}.")))

    def calls(prefix):
        return total("count", prefix) / per

    def self_ms(prefix):
        return total("self", prefix) * 1e3 / per

    def errors(spans_, cls=None, exclude=()):
        tot = 0
        for k, v in counts.items():
            parts = k.split("|")
            if parts[0] == "error" and parts[1] in spans_ and (
                    parts[2] == cls if cls else parts[2] not in exclude):
                tot += v
        return tot / per

    kernel = ("kernel.ir_only", "kernel.affine")
    kernel_known = ("Infeasible", "KKTDegeneracy")
    refusal_known = ("Infeasible", "KKTDegeneracy", "NegativeMultiplier")
    solves = counts["count|active_set"]
    m = {
        "utility.calls": calls("utility"),
        "utility.values": total("detail", "utility") / per,
        "utility.self_ms": self_ms("utility"),
        "kernel.ir_only.calls": calls("kernel.ir_only"),
        "kernel.affine.calls": calls("kernel.affine"),
        "kernel.affine.newton_iters": counts["detail|kernel.affine"] / per,
        "kernel.self_ms": self_ms("kernel"),
        "kernel.errors": errors(kernel),
        **{f"kernel.errors.{cls}": errors(kernel, cls) for cls in kernel_known},
        "kernel.errors.other": errors(kernel, exclude=kernel_known),
        "active_set.calls": solves / per,
        "active_set.working_sets_per_solve": counts["working_sets"] / solves if solves else 0.0,
        "active_set.self_ms": self_ms("active_set"),
        "active_set.certified_share": counts["detail|active_set"] / solves if solves else 0.0,
        "active_set.refusals": errors(("active_set",)),
        **{f"active_set.refusals.{cls}": errors(("active_set",), cls) for cls in refusal_known},
        "active_set.refusals.other": errors(("active_set",), exclude=refusal_known),
        "first_best.calls": calls("first_best"),
        "first_best.self_ms": self_ms("first_best"),
    }
    for d in _DRIVERS:
        answers = counts[f"count|drivers.{d}"]
        m[f"drivers.{d}.solves_per_answer"] = counts[f"solves|drivers.{d}"] / answers if answers else 0.0
        m[f"drivers.{d}.self_ms"] = self_ms(f"drivers.{d}")
    m.update({
        "oracle.grid_points": counts["detail|oracle"] / per,
        "oracle.self_ms": self_ms("oracle"),
        "cara.solve_system.calls": calls("cara.solve_system"),
        "cara.self_ms": self_ms("cara"),
        "problemio.parse_ms": self_ms("problemio.parse"),
        "problemio.dump_ms": self_ms("problemio.dump"),
        "cli.interpreter_ms": counts["probe.interpreter"] * 1e3 / per,
        "cli.import_ms": (counts["probe.import"] - counts["probe.interpreter"]) * 1e3 / per,
        "cli.main_ms": self_ms("cli.main"),
        "cli.bytes_out": counts["bytes_out"] / per,
        "op.self_ms": self_ms("op"),
    })
    return m


def overhead_share(untraced: dict[int, float], traced: dict[int, float]) -> float:
    """1 - untraced/traced op time, over the op ids both passes timed."""
    both = [i for i in traced if i in untraced]
    if not both:
        return 0.0
    return 1.0 - sum(untraced[i] for i in both) / sum(traced[i] for i in both)


def breakdown(name: str, labeled: list[tuple[int, str]]) -> dict:
    """Verdict counts overall, and failed-op counts by op group and verdict."""
    import checks

    by_key: dict[str, Counter] = {}
    for i, label in labeled:
        by_key.setdefault(group_key(name, i), Counter())[label] += 1
    return {
        "verdicts": dict(sorted(Counter(label for _, label in labeled).items())),
        "failed_by_group": {k: {lab: n for lab, n in sorted(c.items()) if lab not in checks.PASS_LABELS}
                            for k, c in sorted(by_key.items())},
        "attempted_by_group": {k: sum(c.values()) for k, c in sorted(by_key.items())},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--worker"]:
        worker_main()
        return 0
    args = parse_args(argv)
    if not (SRC / "beliefcontracts" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'beliefcontracts'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import refclock

    name, reference = args.workload, REFERENCE[args.workload]
    end_to_end_units, layer_units = declared_units()
    context = run_context()
    setup = measure_setup(name, args.seed)
    passes = []
    for seconds, traced in (((args.seconds / 2, False), (args.seconds / 2, True)) if args.trace
                            else ((args.seconds, False),)):
        run = run_pass(name, args.seed, seconds, traced)
        if name == "solve_mix":
            resolve_lp(run, args.seed)
        run["factors"] = scale_factors(run, reference)
        passes.append(run)
    if args.trace:
        first, second = passes
        metrics = layer_metrics(layer_counts(second, second["factors"]), len(second["factors"]))
        metrics["trace.overhead_share"] = overhead_share(latencies(first, first["factors"]),
                                                         latencies(second, second["factors"]))
        units = layer_units
    else:
        run = passes[0]
        metrics = end_to_end(run, latencies(run, run["factors"]), setup["setup_s"])
        raw = end_to_end(run, latencies(run), statistics.median(setup["raw_s"]))
        units = end_to_end_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and declared units disagree: {sorted(set(metrics) ^ set(units))}")
    labeled = [(i, lab) for p in passes for i, (_, _, lab) in p["ops"].items()]
    labels = [lab for _, lab in labeled]
    detail = breakdown(name, labeled)
    context["loadavg_end"] = loadavg()
    busy = [x[0] for x in (context["loadavg_start"], context["loadavg_end"]) if x]
    context["noisy"] = bool(busy and context["nproc"] and max(busy) > context["nproc"])
    refs = [t for p in passes for _, t in p["refs"]]
    context["reference"] = {"kind": reference, "samples": len(refs),
                            "median_s": statistics.median(refs) if refs else None}

    # the program's refusals and wrong answers are judged answers: they lower
    # answered_share and are broken down in the record; an op fails only when
    # the benchmark could not judge it
    not_passed = sum(1 for lab in labels if lab not in checks.PASS_LABELS)
    failed = sum(1 for lab in labels if checks.is_unjudged(lab))
    result = {
        "correct": failed == 0,
        "attempted": len(labels),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    scaled = latencies(passes[0], passes[0]["factors"])
    latency_ms: dict[str, list[float]] = {}
    for i, lat in sorted(scaled.items()):
        latency_ms.setdefault(group_key(name, i), []).append(round(lat * 1e3, 4))
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failed_share": not_passed / len(labels),
              "setup": setup, "context": context, **detail, "result": result,
              "latency_ms_by_group": latency_ms,
              "ops": [[i, lat, lab, passes[0]["factors"].get(i)]
                      for i, (_, lat, lab) in sorted(passes[0]["ops"].items())]}
    if not args.trace:
        record["raw_end_to_end"] = raw
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {len(labels)}")
    print(f"context python {context['python']} numpy {context['numpy']} scipy {context['scipy']} "
          f"nproc {context['nproc']} loadavg {context['loadavg_start']} -> {context['loadavg_end']} "
          f"threads {context['thread_env'] or 'unset'}" + ("  NOISY" if context["noisy"] else ""))
    print(f"reference clock {reference}: {len(refs)} samples, median "
          f"{context['reference']['median_s']!r} s (nominal {refclock.NOMINAL_S[reference]!r} s)")
    print(f"failed_share = {not_passed / len(labels):.4f}  unjudged {failed}  "
          f"verdicts {detail['verdicts']}")
    for metric, value in metrics.items():
        extra = f"   (raw {raw[metric]:.6g})" if not args.trace else ""
        print(f"{metric} = {value:.6g} {units[metric]}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
