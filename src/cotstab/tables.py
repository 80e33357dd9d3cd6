"""Tabular output: CSV and JSON with units in the column names.

Every command emits the same structure: named columns with the unit
appended (``S_volts_per_second``), a metadata block, and rows of values.
Floats are printed with enough digits to round-trip bit exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError

__all__ = ["Table", "format_value", "render_csv", "render_json", "write_table"]


def format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
class Table:
    """Column-named result set with a metadata header."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise DomainError(
                f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(tuple(values))


def render_csv(table: Table) -> str:
    out = io.StringIO()
    for key, val in table.metadata.items():
        out.write(f"# {key}={format_value(val)}\n")
    out.write(",".join(table.columns) + "\n")
    for row in table.rows:
        out.write(",".join(format_value(v) for v in row) + "\n")
    return out.getvalue()


def render_json(table: Table) -> str:
    # JSON has no NaN or infinity, so a non-finite float is written null
    def value(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    payload = {
        "metadata": {k: value(v) for k, v in table.metadata.items()},
        "rows": [dict(zip(table.columns, map(value, row)))
                 for row in table.rows],
    }
    return json.dumps(payload, indent=2, default=str, allow_nan=False) + "\n"


def write_table(table: Table, fmt: str = "csv", path: str | None = None) -> str:
    """Render and optionally write a table; returns the rendered text."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write table to {path!r}: {exc}") from None
    return text
