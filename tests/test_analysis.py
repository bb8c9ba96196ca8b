"""Tests for the table helpers: Table 3's cost model, Table 1's flash
program count and the shared text table."""

import pytest

from repro import FlatFlash, small_config
from repro.experiments.report import Table
from repro.experiments.table1 import flash_programs
from repro.experiments.table3 import DollarCostModel


class TestDollarCostModel:
    def test_hybrid_cost(self):
        model = DollarCostModel()
        assert model.hybrid_cost(dram_gb=2, ssd_gb=100) == 2 * 30 + 100 * 2

    def test_dram_only_cost_includes_base(self):
        model = DollarCostModel()
        assert model.dram_only_cost(32) == 32 * 30 + 1_500

    def test_negative_capacity_rejected(self):
        model = DollarCostModel()
        with pytest.raises(ValueError):
            model.hybrid_cost(-1, 0)
        with pytest.raises(ValueError):
            model.dram_only_cost(-1)


class TestLifetime:
    def test_flash_programs_counted(self):
        system = FlatFlash(small_config())
        region = system.mmap(4)
        system.store(region.addr(0), 8)
        system.ssd.gc.flush_dirty()
        assert flash_programs(system) >= 4  # mapping programs + destage


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("Title", ["a", "bb"])
        table.add_row(1, "x")
        table.add_row(22, "yy")
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "Title"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned widths

    def test_table_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_extend(self):
        table = Table("t", ["a"])
        table.extend([[1], [2]])
        assert len(table.rows) == 2

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])
