"""Compare two benchmark reports: ``compare.py BASE.json NEW.json``.

Both files come from ``run.py --out``.  For every workload and every
end-to-end metric in ``BENCHMARK.json`` the verdict is

``worse``
    the new median is worse than the base median by more than the
    metric's bound;
``unresolved``
    the run-to-run spread (quartile distance over median) of either side
    exceeds the bound, and not every new run beats every base run;
``better``
    the new side wins at least nine in ten runs paired by seed (ties
    count for neither) and the medians differ by more than the base's
    own quartile distance — or, with a spread wider than the bound,
    every new run beats every base run;
``unchanged``
    otherwise.

An ``error_rate`` (failed over attempted operations) that rose is
``worse`` too.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import load_spec, quartiles  # noqa: E402

#: Share of pairs the new side must win to count as better.
WIN_SHARE = 0.9


def verdict(base: list[float], new: list[float], *, higher_is_better: bool,
            bound: float, pairs: list[tuple[float, float]]) -> dict:
    """One (workload, metric) verdict from per-run values."""
    sign = 1.0 if higher_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    # Positive = the new side is better, as a share of the base median.
    change = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    dominates = min(sign * v for v in new) > max(sign * v for v in base)
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if spread > bound:
        result = "better" if dominates else "unresolved"
    elif change < -bound:
        result = "worse"
    elif (pairs and wins >= WIN_SHARE * len(pairs)
          and abs(nmed - bmed) > bq3 - bq1 and change > 0):
        result = "better"
    else:
        result = "unchanged"
    return {"verdict": result, "base": bmed, "new": nmed, "change": change,
            "spread": spread, "wins": wins, "pairs": len(pairs)}


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    """Every (workload, metric) row, ``error_rate`` included."""
    rows = []
    for workload in base["summary"]:
        if workload not in new["summary"]:
            continue
        b_runs = [r for r in base["runs"] if r["workload"] == workload]
        n_runs = [r for r in new["runs"] if r["workload"] == workload]
        n_by_seed = {r["seed"]: r for r in n_runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(b["metrics"][name]["value"],
                      n_by_seed[b["seed"]]["metrics"][name]["value"])
                     for b in b_runs if b["seed"] in n_by_seed]
            row = verdict([r["metrics"][name]["value"] for r in b_runs],
                          [r["metrics"][name]["value"] for r in n_runs],
                          higher_is_better=metric["better"] == "higher",
                          bound=metric["bound"], pairs=pairs)
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
        b_err = base["summary"][workload]["error_rate"]
        n_err = new["summary"][workload]["error_rate"]
        rows.append({"workload": workload, "metric": "error_rate",
                     "verdict": "worse" if n_err > b_err else "unchanged",
                     "base": b_err, "new": n_err, "change": b_err - n_err,
                     "spread": 0.0, "bound": 0.0, "wins": 0, "pairs": 0})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':12s} {'metric':16s} {'base':>12s} {'new':>12s} "
             f"{'change':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  "
             f"verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:12s} {r['metric']:16s} {r['base']:12.5g} "
            f"{r['new']:12.5g} {r['change']:+8.1%} {r['spread']:7.1%} "
            f"{r['bound']:6.0%} {r['wins']:>3d}/{r['pairs']:<2d}  "
            f"{r['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = load_spec()
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows = compare(base, new, spec)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
