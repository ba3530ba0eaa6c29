"""Unit tests for benchmark metrics plumbing."""

from repro.bench.metrics import FigureResult, Series


class TestSeries:
    def test_add_points(self):
        series = Series("sys")
        series.add(10, 1.5)
        series.add(20, 2.5)
        assert series.points == {10: 1.5, 20: 2.5}


class TestFigureResult:
    def _figure(self):
        figure = FigureResult("FigX", "title", "#Records", "ops/s")
        figure.series_named("A").add(10, 100.0)
        figure.series_named("A").add(20, 50.0)
        figure.series_named("B").add(10, 10.0)
        return figure

    def test_series_named_creates_once(self):
        figure = self._figure()
        assert figure.series_named("A") is figure.series_named("A")
        assert len(figure.series) == 2

    def test_xs_union(self):
        assert self._figure().xs() == [10, 20]

    def test_format_table_contains_everything(self):
        text = self._figure().format_table()
        assert "FigX" in text
        assert "A" in text and "B" in text
        assert "100.0" in text
        assert "-" in text  # B has no point at x=20

    def test_ratio(self):
        assert self._figure().ratio("A", "B", 10) == 10.0
