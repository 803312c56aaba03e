"""Shared helpers for the benchmark harness.

Each bench regenerates one experiment from DESIGN.md's index (E1-E12),
prints the paper-style table, and persists it twice under
``benchmarks/results/``:

* ``<name>.txt`` — the aligned monospace table, diff-able into
  EXPERIMENTS.md (unchanged format);
* ``BENCH_<name>.json`` — a schema-versioned machine-readable twin
  (``repro.bench.v1``) holding the same rows as typed values, plus any
  structured metrics the bench passes and, optionally, a full
  observability snapshot (see OBSERVABILITY.md for the schema).

A quick-scale run (a bench's ``--quick`` smoke) writes both files to the
git-ignored ``results/quick/`` instead, so it never overwrites the
tracked full-scale twins.

Timing is reported by pytest-benchmark; the tables are the scientific
output.  The JSON twin's ``meta`` block records the wall-clock duration
and the python version of the producing run, and its ``timing`` list
names the fields its bench measured on the clock or over sockets;
everything else is seed-determined, so reruns with the same seeds are
byte-identical outside those two (``tools/fresh_twins.py`` checks it).
"""

from __future__ import annotations

import json
import pathlib
import platform
import re
import time

# Re-exported: the benches import the standard mix from here.
from repro.agents.behaviors import standard_adversary_mix
from repro.obs import snapshot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Import time of this module; the default wall-clock reference for a
#: bench run's ``meta.duration_s`` when no explicit duration is passed.
_T0 = time.perf_counter()

#: Version tag stamped into every BENCH_*.json. Bump on breaking schema
#: changes and document the migration in OBSERVABILITY.md.
BENCH_SCHEMA = "repro.bench.v1"

#: A table rule line: runs of dashes separated by the two-space column
#: gap that :func:`repro.analysis.reporting.format_table` emits.
_RULE_RE = re.compile(r"^ *-+(?:  +-+)* *$")


def _coerce(cell: str):
    """Best-effort typed value for one table cell.

    ``yes``/``no`` (how ``format_table`` renders booleans) become
    booleans, numerics (including ``1,234.5`` and ``9.61e+01``) become
    int/float, everything else stays a string.
    """
    if cell == "yes":
        return True
    if cell == "no":
        return False
    raw = cell.replace(",", "")
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return cell


def _column_spans(rule: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in re.finditer(r"-+", rule)]


def _slice_row(line: str, spans: list[tuple[int, int]]) -> list[str]:
    """Cut one table line at the rule's column boundaries.

    Cells are right-justified, so each cell lives in
    ``(previous column's end, this column's end]``; slicing there is
    robust even when a cell's text contains single spaces.
    """
    cells = []
    prev_end = 0
    for i, (_start, end) in enumerate(spans):
        hi = len(line) if i == len(spans) - 1 else end
        cells.append(line[prev_end:hi].strip())
        prev_end = hi
    return cells


def _fits(line: str, rule: str, spans: list[tuple[int, int]]) -> bool:
    """Whether ``line`` is a row of the table ``rule`` heads: exactly as
    wide as the rule, with blank column gaps (``format_table`` pads every
    row to the rule)."""
    return len(line) == len(rule) and all(
        not line[end:start].strip() for (_, end), (start, _) in zip(spans, spans[1:])
    )


def parse_tables(text: str) -> list[dict]:
    """Parse ``format_table`` output (possibly several captioned tables).

    Returns a list of ``{"caption", "columns", "rows"}`` dicts where
    each row is a column-name -> typed-value mapping.  A table is a
    header line followed by a dash rule; its rows are the lines after
    the rule that fit the rule's columns, up to the first that does not
    (a trailer such as ``all tips bit-identical: yes`` is no row).  The
    non-blank line immediately preceding the header (e.g.
    ``-- loss sweep --``) is its caption.
    """
    lines = text.split("\n")
    tables: list[dict] = []
    caption: str | None = None
    i = 0
    while i < len(lines):
        line = lines[i]
        nxt = lines[i + 1] if i + 1 < len(lines) else ""
        if line.strip() and "-" in nxt and _RULE_RE.match(nxt):
            spans = _column_spans(nxt)
            columns = _slice_row(line, spans)
            rows = []
            i += 2
            while i < len(lines) and _fits(lines[i], nxt, spans):
                cells = [_coerce(c) for c in _slice_row(lines[i], spans)]
                rows.append(dict(zip(columns, cells, strict=True)))
                i += 1
            tables.append({"caption": caption, "columns": columns, "rows": rows})
            caption = None
        else:
            caption = line.strip() or None
            i += 1
    return tables


def runtime_meta(duration_s: float | None = None) -> dict:
    """The metadata block stamped into every BENCH twin.

    Records the producing run's wall-clock duration (seconds) and the
    python version — enough to interpret throughput numbers and
    spot environment drift between otherwise byte-identical reruns.
    """
    if duration_s is None:
        duration_s = time.perf_counter() - _T0
    return {
        "duration_s": round(float(duration_s), 3),
        "python": platform.python_version(),
    }


def emit(
    name: str,
    title: str,
    table: str,
    metrics: dict | None = None,
    registry=None,
    duration_s: float | None = None,
    quick: bool = False,
    timing: tuple[str, ...] = (),
) -> None:
    """Print an experiment table and persist both result files.

    Args:
        name: Experiment id, e.g. ``"E12_faults"``; names the files.
        title: Human-readable headline written atop the .txt file.
        table: The ``format_table`` text (captions allowed between
            tables); parsed into the JSON twin's ``tables`` field.
        metrics: Optional structured per-scenario values the bench
            computed directly (richer types than the rendered cells).
        registry: Optional :class:`repro.obs.MetricsRegistry`; when
            given, its full :func:`repro.obs.snapshot` is embedded under
            ``"observability"``.
        duration_s: Wall-clock seconds the bench took; defaults to the
            elapsed time since this module was imported.
        quick: The run was at the bench's quick scale: write to
            ``results/quick/``, not over the tracked twins.
        timing: The twin's wall-clock or socket-timing fields, which a
            rerun need not reproduce: dotted globs matched against the
            end of a field's path (see ``tools/fresh_twins.py``).
    """
    directory = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    text = f"{title}\n{table}\n"
    print()
    print(text)
    (directory / f"{name}.txt").write_text(text)

    doc: dict = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "title": title,
        "tables": parse_tables(table),
        "meta": runtime_meta(duration_s),
    }
    if timing:
        doc["timing"] = list(timing)
    if metrics is not None:
        doc["metrics"] = metrics
    if registry is not None:
        doc["observability"] = snapshot(registry)
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
