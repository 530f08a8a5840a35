"""Summarize a batch of benchmark runs and check their spread against the bounds.

    python3 bench/summarize.py bench/.work/results
    python3 bench/summarize.py DIR --record "label"   # also append to trajectory.json

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  Untraced runs give the
end-to-end metrics (and the same figures before reference-clock scaling,
marked raw), traced runs the per-layer ones.  ``--record`` appends
the medians, the failed-op breakdowns and the run context to
``bench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TRAJECTORY = BENCH / "trajectory.json"


def load(folder: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(folder.glob("*.json"))]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median); a single run has no spread."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(records: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out: dict = {}
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    for (workload, trace), runs in sorted(groups.items()):
        entry = out.setdefault(workload, {})
        metrics = defaultdict(list)
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append(m["value"])
        table = {}
        for name, values in metrics.items():
            med, q1, q3, sp = spread(values)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "runs": len(values),
                           "unit": runs[0]["result"]["metrics"][name]["unit"]}
            if not trace:
                table[name]["bound"] = bounds.get(name)
        entry["per_layer" if trace else "end_to_end"] = table
        if not trace:
            raw = {}
            for name in table:
                med, q1, q3, sp = spread([r["raw_end_to_end"][name] for r in runs])
                raw[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "runs": len(runs),
                             "unit": table[name]["unit"]}
            entry["raw_end_to_end"] = raw
            verdicts, failed_by_group, attempted_by_group = Counter(), defaultdict(Counter), Counter()
            for r in runs:
                verdicts.update(r["verdicts"])
                attempted_by_group.update(r["attempted_by_group"])
                for g, c in r["failed_by_group"].items():
                    failed_by_group[g].update(c)
            attempted = sum(verdicts.values())
            failed = sum(sum(c.values()) for c in failed_by_group.values())
            entry["ops"] = {
                "attempted": attempted,
                "failed_share": failed / attempted if attempted else 0.0,
                "verdicts": dict(sorted(verdicts.items())),
                "failed_by_group": {g: {"attempted": attempted_by_group[g], **dict(sorted(c.items()))}
                                    for g, c in sorted(failed_by_group.items()) if c},
                "seeds": sorted(r["seed"] for r in runs),
                "noisy_runs": sum(1 for r in runs if r["context"].get("noisy")),
            }
            entry["context"] = {k: runs[0]["context"][k]
                                for k in ("python", "numpy", "scipy", "nproc", "thread_env")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("folder", type=Path)
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args(argv)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    summary = summarize(load(args.folder), bench)
    ok = True
    for workload, entry in summary.items():
        for section in ("end_to_end", "raw_end_to_end", "per_layer"):
            for name, s in entry.get(section, {}).items():
                bound = s.get("bound")
                flag = ""
                if bound is not None and name != "setup_s":
                    if s["spread"] > bound:
                        flag, ok = "  OVER BOUND", False
                    elif s["spread"] > bound / 3:
                        flag = "  over bound/3"
                label = f"raw {name}" if section == "raw_end_to_end" else name
                print(f"{workload:10s} {label:44s} median {s['median']:<12.6g} {s['unit']:8s} "
                      f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} spread {s['spread']:.4f}"
                      + (f" bound {bound}" if bound is not None else "") + f" n={s['runs']}{flag}")
        if "ops" in entry:
            print(f"{workload:10s} failed_share {entry['ops']['failed_share']:.4f} "
                  f"verdicts {entry['ops']['verdicts']}")
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append({"label": args.record, "workloads": summary})
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
