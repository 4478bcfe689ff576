"""Plain-text table/series formatting shared by benchmarks and examples.

Every benchmark regenerates a paper table or figure as printed rows; the
formatters here keep that output consistent (fixed-width columns, percent
formatting, CDF series) so EXPERIMENTS.md diffs stay readable.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.analysis import RANK_LABELS, QuestionTally, RankingDistribution
from repro.util.statsutil import Cdf


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width table with a header rule."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            columns[index].append(_format_cell(cell))
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip([c[0] for c in columns], widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row_index in range(1, len(columns[0])):
        lines.append(
            "  ".join(
                columns[col][row_index].ljust(widths[col])
                for col in range(len(columns))
            )
        )
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and abs(cell) < 0.001:
            return f"{cell:.2e}"
        return f"{cell:.3f}".rstrip("0").rstrip(".") if cell % 1 else f"{cell:.0f}"
    return str(cell)


def format_ranking_distribution(
    distribution: RankingDistribution, title: str = ""
) -> str:
    """The Figure 4 panel as a table: versions x rank levels (percent)."""
    n = len(distribution.version_ids)
    headers = ["version"] + [f"rank {label} (%)" for label in RANK_LABELS[:n]]
    rows = []
    for version, percents in distribution.rows():
        rows.append([version] + [round(p, 1) for p in percents])
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def format_question_tally(
    tally: QuestionTally,
    left_label: str = "",
    right_label: str = "",
) -> str:
    """One question's Left/Same/Right split plus its p-value."""
    percents = tally.percentages
    left_label = left_label or tally.left_version
    right_label = right_label or tally.right_version
    return format_table(
        ["answer", "count", "percent"],
        [
            [left_label, tally.left_count, round(percents["left"], 1)],
            ["Same", tally.same_count, round(percents["same"], 1)],
            [right_label, tally.right_count, round(percents["right"], 1)],
        ],
    ) + f"\np-value (one-sided unpooled z): {tally.preference_p_value():.3g}"


def format_cdf(cdf: Cdf, label: str, points: int = 10) -> str:
    """A CDF as evenly-sampled (x, P) rows."""
    series = cdf.series()
    if len(series) > points:
        step = (len(series) - 1) / (points - 1)
        series = [series[round(i * step)] for i in range(points)]
    rows = [[round(x, 3), round(p, 3)] for x, p in series]
    return format_table([label, "P(X<=x)"], rows)


def format_series(
    series: Sequence[Tuple], headers: Sequence[str], max_rows: int = 12
) -> str:
    """A figure line-series, downsampled to ``max_rows`` printed rows."""
    rows = list(series)
    if len(rows) > max_rows:
        step = (len(rows) - 1) / (max_rows - 1)
        rows = [rows[round(i * step)] for i in range(max_rows)]
    return format_table(headers, [[_round_maybe(v) for v in row] for row in rows])


def _round_maybe(value):
    if isinstance(value, float):
        return round(value, 3)
    return value
