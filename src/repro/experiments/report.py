"""Plain-text table rendering for experiment output.

Every benchmark prints its figure/table as an aligned ASCII table so the
harness output can be compared to the paper side by side (EXPERIMENTS.md
embeds these).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _render_cell(cell: Cell) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return f"{cell:,}"
    if isinstance(cell, float):
        return f"{cell:,.2f}"
    return str(cell)


class Table:
    """An aligned text table with a title, built row by row."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.columns)} columns"
            )
        self.rows.append([_render_cell(cell) for cell in cells])

    def extend(self, rows: Iterable[Sequence[Cell]]) -> None:
        for row in rows:
            self.add_row(*row)

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        header = " | ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - mirrors the builtin deliberately
        print()
        print(self.render())

    def __str__(self) -> str:
        return self.render()
