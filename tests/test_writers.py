"""The output writers against reference copies of the per-cell and per-point code.

`reference_write_csv` and `reference_line_plot` are the writers as they were
before each file was formatted in one `%` pass: csv.writer with one
format(float(x), ".17g") call per numeric cell, and one format(x, ".6g")
call per SVG coordinate.  The writers must give the same bytes.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dispersal_lab import cli, svgplot
from dispersal_lab.cli import EXIT_OK, parse_config, run_scenario
from dispersal_lab.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_write_csv(path: Path, header: list[str], rows) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(x), ".17g")
                             if isinstance(x, (int, float, np.floating)) else str(x)
                             for x in row])
    return path


def reference_line_plot(path, x, series, labels, title, xlabel="", ylabel=""):
    def fmt(v):
        return format(float(v), ".6g")

    path = Path(path)
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(s, dtype=float) for s in series]
    if not ys or any(len(s) != len(x) for s in ys):
        raise ValueError("every series must match the x axis length")
    if len(labels) != len(ys):
        raise ValueError("one label per series required")

    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate(ys)
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0:
        pad = max(abs(y_hi), 1.0) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#777"/>',
    ]
    if y_lo < 0 < y_hi:
        zero = sy(0.0)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{fmt(zero)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{fmt(zero)}" stroke="#bbb" stroke-dasharray="4 3"/>'
        )
    for color, label, y_series in zip(PALETTE, labels, ys):
        points = " ".join(f"{fmt(sx(xi))},{fmt(sy(yi))}" for xi, yi in zip(x, y_series))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    for i, (color, label) in enumerate(zip(PALETTE, labels)):
        ly = MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{ly - 4}" x2="{WIDTH - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 120}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{label}</text>"
        )
    parts.append(
        f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 16}" font-size="11" '
        f'font-family="sans-serif">{fmt(x_lo)}</text>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{fmt(x_hi)}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_L - 6}" y="{HEIGHT - MARGIN_B}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{fmt(y_lo)}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 10}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{fmt(y_hi)}</text>'
    )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{HEIGHT // 2}" font-size="12" font-family="sans-serif" '
            f'transform="rotate(-90 14 {HEIGHT // 2})" text-anchor="middle">{ylabel}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# _write_csv

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-310,
                  1e300, -1e300, 0.1, 1 / 3]
TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n \'abc%é')), max_size=6)
CELLS = {
    "float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
    "numpy": st.floats(width=64).map(np.float64),
    "int": st.one_of(st.integers(-2**64, 2**64),
                     st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**63 + 12345])),
    "text": TEXT,
}


@st.composite
def tables(draw):
    """(header, rows for the writer, rows for the reference); each column has one kind."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    n_rows = draw(st.integers(0, 6))
    rows = [[draw(CELLS[kind]) for kind in kinds] for _ in range(n_rows)]
    if n_rows and all(kind == "float" for kind in kinds) and draw(st.booleans()):
        array = np.array(rows, dtype=float)  # the 2-D array that _write_fields passes
        return header, array, [list(row) for row in array]
    return header, rows, rows


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
@example(table=(["name", "lo", "hi", "root", "residual"], [], []))  # threshold.csv, no root
@example(table=([""], [[""], ["a"]], [[""], ["a"]]))
@example(table=(["x", "y"], np.array([[-0.0, 5e-324], [math.nan, -math.inf]]),
                [[-0.0, 5e-324], [math.nan, -math.inf]]))
def test_write_csv_matches_csv_writer(tmp_path, table):
    header, rows, reference_rows = table
    new = cli._write_csv(tmp_path / "new.csv", header, rows)
    old = reference_write_csv(tmp_path / "old.csv", header, reference_rows)
    assert new == tmp_path / "new.csv"
    assert new.read_bytes() == old.read_bytes()


# ---------------------------------------------------------------------------
# svgplot.line_plot

VALUES = st.floats(-1e4, 1e4, allow_subnormal=True)


@st.composite
def plots(draw):
    n = draw(st.integers(1, 40))
    x = draw(st.one_of(
        st.lists(VALUES, min_size=n, max_size=n),
        VALUES.map(lambda v: [v] * n),  # constant x: x_hi = x_lo + 1
    ))
    series = []
    for _ in range(draw(st.integers(1, 6))):
        series.append(draw(st.one_of(
            st.lists(VALUES, min_size=n, max_size=n),
            VALUES.map(lambda v: [v] * n),  # constant: the padding branch
            st.lists(st.floats(1e-3, 1e2), min_size=n, max_size=n),
        )))
    labels = [f"series {k}" for k in range(len(series))]
    return x, series, labels


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plot=plots())
@example(plot=([0.5], [[2.0]], ["one point"]))
@example(plot=([0.0, 1.0, 2.0], [[3.0, 3.0, 3.0]], ["constant"]))
@example(plot=([0.0, 1.0, 2.0], [[-1.0, 0.5, 2.0], [0.0, 0.0, 1.0]], ["crosses zero", "b"]))
@example(plot=([1.0, 1.0], [[1.0, 2.0]] * 6, [str(k) for k in range(6)]))
def test_line_plot_matches_per_point_code(tmp_path, plot):
    x, series, labels = plot
    kwargs = dict(title="t", xlabel="x", ylabel="y")
    new = svgplot.line_plot(tmp_path / "new.svg", x, series, labels, **kwargs)
    old = reference_line_plot(tmp_path / "old.svg", x, series, labels, **kwargs)
    assert new == tmp_path / "new.svg"
    assert new.read_bytes() == old.read_bytes()


# ---------------------------------------------------------------------------
# Every output file goes through a writer the benchmark traces by name.

def small_config(name: str, tmp_path: Path, n: int, task: dict | None = None, **solver) -> dict:
    data = json.loads((CONFIGS / name).read_text())
    data["grid"]["n"] = n
    data["output"] = str(tmp_path / "out")
    if task is not None:
        data["task"] = task
    if solver:
        data["solver"] = solver
    return data


TRACED_TASKS = {
    "eigen": ("reference.json", 51, {"name": "eigen"}, {}),
    "steady": ("reference.json", 51, {"name": "steady"}, {}),
    "threshold": ("threshold_dc.json", 51, None, {}),
    "sweep": ("sweep_d3.json", 41, {"name": "sweep", "parameter": "d3", "values": [0.05, 1.5]},
              {"dt": 0.05, "t_max": 50.0, "sample_every": 10.0}),
}


@pytest.mark.parametrize("task", sorted(TRACED_TASKS))
def test_every_output_file_is_written_by_a_traced_writer(tmp_path, monkeypatch, task):
    name, n, task_spec, solver = TRACED_TASKS[task]
    written = []

    def traced(fn):
        def wrapper(*args, **kwargs):
            path = fn(*args, **kwargs)
            written.append(Path(path))
            return path
        return wrapper

    for module, attr in ((cli, "_write_csv"), (cli, "_write_report"), (svgplot, "line_plot")):
        monkeypatch.setattr(module, attr, traced(getattr(module, attr)))
    artifacts = run_scenario(parse_config(small_config(name, tmp_path, n, task_spec, **solver)))
    assert artifacts.exit_status == EXIT_OK
    out = tmp_path / "out"
    assert len(written) == len(set(written))
    assert set(written) == set(out.iterdir())


# ---------------------------------------------------------------------------
# End to end: the shipped writers and the reference writers give the same files.

@pytest.mark.parametrize("task", ["eigen", "simulate"])
def test_outputs_match_the_reference_writers(tmp_path, monkeypatch, task):
    def run(tag: str) -> Path:
        data = small_config("reference.json", tmp_path / tag, 41, {"name": task})
        assert run_scenario(parse_config(data)).exit_status == EXIT_OK
        return tmp_path / tag / "out"

    shipped = run("shipped")
    monkeypatch.setattr(cli, "_write_csv", reference_write_csv)
    monkeypatch.setattr(svgplot, "line_plot", reference_line_plot)
    reference = run("reference")
    names = sorted(p.name for p in shipped.iterdir())
    assert names == sorted(p.name for p in reference.iterdir())
    assert any(name.endswith(".csv") for name in names) and any(n.endswith(".svg") for n in names)
    for name in names:
        assert (shipped / name).read_bytes() == (reference / name).read_bytes(), name
