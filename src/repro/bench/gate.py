"""One bench record, one gate: the ``grout-bench/1`` schema.

Three bench scripts guard claims beyond the end-to-end benchmark:
``benchmarks/bench_scale.py`` (scheduling throughput, the paper's
microseconds-per-decision claim), ``benchmarks/bench_serve.py`` (the
serve path) and ``benchmarks/bench_backends.py`` (the CPU-driven page
migration engine against a GPU-driven design).  Each emits *rows*, one
metric of one cell of one suite::

    {"suite": "scale", "cell": "wide@10000/shards2",
     "metric": "events_per_sec", "better": "higher", "value": 24394.9}

with an optional absolute ``floor``.  A cell key carries everything a
comparison matches on — workload, size, shard count, offered load,
request count, trials — so a quick cell never gates against a full one.
A record is ``{"schema": "grout-bench/1", "rows": [...]}``, and the
committed baseline is ``BENCH_baseline.json`` at the repository root.

:func:`check` applies every bound and returns every failure:

* a row with a baseline counterpart (same suite, cell and metric) fails
  once it moved past :data:`FACTOR` in its worse direction;
* any row fails below its floor;
* a run in which no row was checked fails, so a gate cannot pass
  vacuously.

The scripts share the rest of their tail too: :func:`add_cli_args`
declares ``--out`` and ``--check``, :func:`finish` writes and gates,
and :func:`profile_top` is the cProfile top-N behind ``--profile``.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Callable

from repro.bench.report import format_table

__all__ = ["SCHEMA", "SUITES", "FACTOR", "row", "problems", "load",
           "check", "write", "add_cli_args", "finish", "profile_top"]

SCHEMA = "grout-bench/1"
SUITES = ("scale", "serve", "backends")
#: How far a row may move in its worse direction against its baseline.
FACTOR = 2.0

_FIELDS = {"suite", "cell", "metric", "better", "value"}


def row(suite: str, cell: str, metric: str, value: float, better: str,
        floor: float | None = None) -> dict:
    """One gate row; ``better`` is ``"higher"`` or ``"lower"``."""
    out = {"suite": suite, "cell": cell, "metric": metric,
           "better": better, "value": value}
    if floor is not None:
        out["floor"] = floor
    return out


def _key(r: dict) -> tuple[str, str, str]:
    return r["suite"], r["cell"], r["metric"]


def _number(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def problems(record: object) -> list[str]:
    """Why ``record`` is not a well-formed ``grout-bench/1`` record
    (empty when it is)."""
    if not isinstance(record, dict) or record.get("schema") != SCHEMA:
        return [f"not a {SCHEMA} record"]
    rows = record.get("rows")
    if not isinstance(rows, list):
        return ["rows is not a list"]
    found, seen = [], set()
    for i, r in enumerate(rows):
        if not isinstance(r, dict) or not (
                _FIELDS <= set(r) <= _FIELDS | {"floor"}):
            found.append(f"row {i}: fields must be {sorted(_FIELDS)} "
                         "and an optional floor")
            continue
        if not (r["suite"] in SUITES
                and all(isinstance(r[k], str) and r[k]
                        for k in ("cell", "metric"))):
            found.append(f"row {i}: the suite must be one of {SUITES}, "
                         "and the cell and metric named")
        elif _key(r) in seen:
            found.append(f"row {i}: {' '.join(_key(r))} repeats")
        else:
            seen.add(_key(r))
        if r["better"] not in ("higher", "lower"):
            found.append(f"row {i}: better must be higher or lower")
        if not _number(r["value"]):
            found.append(f"row {i}: value must be a finite number")
        if "floor" in r and not (_number(r["floor"])
                                 and r["better"] == "higher"):
            found.append(f"row {i}: a floor is a number on a "
                         "higher-is-better row")
    return found


def _validated(record: object) -> dict:
    found = problems(record)
    if found:
        raise ValueError("malformed bench record: " + "; ".join(found))
    return record


def load(path: str | pathlib.Path) -> dict:
    """Read a record, refusing a malformed one with ``ValueError``."""
    return _validated(json.loads(pathlib.Path(path).read_text("utf-8")))


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def check(baseline: dict, current: dict) -> list[str]:
    """Every failure of ``current`` against ``baseline`` (empty: pass).

    Each failure names the suite, cell and metric.
    """
    base = {_key(r): r for r in _validated(baseline)["rows"]}
    failures, checked = [], 0
    for r in _validated(current)["rows"]:
        name, value = " ".join(_key(r)), r["value"]
        b = base.get(_key(r))
        if b is not None:
            checked += 1
            worse = (value * FACTOR < b["value"] if r["better"] == "higher"
                     else value > FACTOR * b["value"])
            if worse:
                failures.append(
                    f"{name}: {_fmt(value)} vs baseline {_fmt(b['value'])}"
                    f" ({r['better']} is better; more than {FACTOR:g}x "
                    "worse)")
        if "floor" in r:
            checked += 1
            if value < r["floor"]:
                failures.append(f"{name}: {_fmt(value)} below its floor "
                                f"of {_fmt(r['floor'])}")
    if not checked:
        failures.append("no row was checked: no cell of this run has a "
                        "baseline row or a floor")
    return failures


def write(path: str | pathlib.Path, rows: list[dict]) -> None:
    """Merge ``rows`` into the record at ``path`` (created if missing).

    The cells these rows measured replace their old rows; every other
    row stays, so a sharded run does not drop the unsharded cells.
    Rows are kept sorted and written one per line.
    """
    path = pathlib.Path(path)
    kept = load(path)["rows"] if path.exists() else []
    measured = {(r["suite"], r["cell"]) for r in rows}
    merged = [r for r in kept if (r["suite"], r["cell"]) not in measured]
    merged += rows
    merged.sort(key=lambda r: (SUITES.index(r["suite"]), r["cell"],
                               r["metric"]))
    _validated({"schema": SCHEMA, "rows": merged})
    path.write_text(
        f'{{"schema": "{SCHEMA}", "rows": [\n'
        + ",\n".join(json.dumps(r) for r in merged) + "\n]}\n", "utf-8")


def add_cli_args(parser) -> None:
    """Declare the bench scripts' shared ``--out`` and ``--check`` flags."""
    parser.add_argument("--out", default=None, metavar="FILE",
                        help=f"merge this run's {SCHEMA} rows into FILE "
                             "(the cells it measured are replaced)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="gate this run's rows against a baseline "
                             "record (e.g. BENCH_baseline.json); exit 1 "
                             "on any failure")


def finish(args, rows: list[dict]) -> int:
    """The bench scripts' shared tail: write ``--out``, gate on ``--check``;
    returns the exit status."""
    baseline = load(args.check) if args.check else None
    if args.out:
        write(args.out, rows)
        print(f"\nwrote {len(rows)} rows to {args.out}")
    if baseline is None:
        return 0
    failures = check(baseline, {"schema": SCHEMA, "rows": rows})
    if failures:
        print(f"\nGATE FAILED vs {args.check}")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"\ngate OK vs {args.check}")
    return 0


def profile_top(fn: Callable[[], object], top: int, title: str) -> str:
    """cProfile ``fn()``; its ``top`` functions by total time, as a
    table."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).sort_stats("tottime")
    lines = []
    for func in stats.fcn_list[:top]:
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        lines.append((name, f"{filename}:{line}", ncalls,
                      f"{tottime:.4f}", f"{cumtime:.4f}"))
    return format_table(["function", "file:line", "ncalls", "tottime (s)",
                         "cumtime (s)"], lines, title=title)
