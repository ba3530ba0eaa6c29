"""Result types for the figure harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Series:
    """One line of a figure: system name -> {x: ops/s or KB}."""

    name: str
    points: Dict[int, float] = field(default_factory=dict)

    def add(self, x: int, y: float) -> None:
        self.points[x] = y


@dataclass
class FigureResult:
    """A whole figure: several series over a shared x axis."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        created = Series(name=name)
        self.series.append(created)
        return created

    def xs(self) -> List[int]:
        values = set()
        for series in self.series:
            values.update(series.points)
        return sorted(values)

    def format_table(self) -> str:
        """Paper-style aligned text table."""
        xs = self.xs()
        name_width = max(
            [len(series.name) for series in self.series] + [len(self.x_label)]
        )
        header = self.x_label.ljust(name_width) + "".join(
            f"{x:>12}" for x in xs
        )
        lines = [
            f"== {self.figure}: {self.title} ({self.y_label}) ==",
            header,
            "-" * len(header),
        ]
        for series in self.series:
            row = series.name.ljust(name_width)
            for x in xs:
                value = series.points.get(x)
                row += f"{value:>12.1f}" if value is not None else (
                    " " * 11 + "-"
                )
            lines.append(row)
        return "\n".join(lines)

    def ratio(self, numerator: str, denominator: str, x: int) -> float:
        """Convenience for shape assertions in tests/EXPERIMENTS.md."""
        top = self.series_named(numerator).points[x]
        bottom = self.series_named(denominator).points[x]
        return top / bottom
