"""Utility helpers: tables."""

import pytest

from repro.util.tables import Table


class TestTable:
    def test_render_alignment(self):
        t = Table(["a", "longer"])
        t.add_row([1, 2])
        lines = t.render().splitlines()
        assert lines[0] == "a | longer"
        assert lines[1] == "--+-------"
        assert lines[2].startswith("1 | 2")

    def test_title_line(self):
        t = Table(["x"], title="hello")
        t.add_row([1])
        assert t.render().splitlines()[0] == "hello"

    def test_wrong_cell_count_rejected(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row([3.14159265])
        assert "3.142" in t.render()

    def test_str_dunder(self):
        t = Table(["v"])
        t.add_row(["x"])
        assert str(t) == t.render()

    def test_column_width_tracks_longest_cell(self):
        t = Table(["h"])
        t.add_row(["abcdef"])
        header = t.render().splitlines()[0]
        assert len(header) == len("abcdef")
