"""Cost-effectiveness model for FlatFlash vs DRAM-only (§5.7, Table 3).

The paper's method: rerun each workload with the entire working set in
DRAM, call the performance ratio the *slowdown*, price the two
configurations (DRAM at $30/GB, PCIe flash at $2/GB, plus a $1,500 server
base-cost increase for the extra DIMM slots a DRAM-only build needs), and
report

    cost-effectiveness = cost-saving / slowdown
                       = (cost_dram_only / cost_flatflash) / slowdown,

i.e. normalized performance per dollar.  Values above 1.0 mean FlatFlash
gives more performance per dollar than provisioning DRAM for everything.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Unit prices used in the paper's analysis (2018 street prices).
DRAM_DOLLARS_PER_GB = 30.0
SSD_DOLLARS_PER_GB = 2.0
DRAM_ONLY_BASE_COST = 1_500.0  # extra DIMM-slot server cost


@dataclass
class DollarCostModel:
    """Prices a hybrid (DRAM+SSD) and a DRAM-only configuration."""

    dram_dollars_per_gb: float = DRAM_DOLLARS_PER_GB
    ssd_dollars_per_gb: float = SSD_DOLLARS_PER_GB
    dram_only_base_cost: float = DRAM_ONLY_BASE_COST

    def hybrid_cost(self, dram_gb: float, ssd_gb: float) -> float:
        """Cost of the FlatFlash configuration hosting the dataset on SSD."""
        if dram_gb < 0 or ssd_gb < 0:
            raise ValueError("capacities must be non-negative")
        return dram_gb * self.dram_dollars_per_gb + ssd_gb * self.ssd_dollars_per_gb

    def dram_only_cost(self, dataset_gb: float) -> float:
        """Cost of provisioning the whole dataset in DRAM."""
        if dataset_gb < 0:
            raise ValueError("dataset size must be non-negative")
        return dataset_gb * self.dram_dollars_per_gb + self.dram_only_base_cost


@dataclass
class CostEffectiveness:
    """One Table 3 row."""

    workload: str
    slowdown: float
    cost_saving: float

    @property
    def cost_effectiveness(self) -> float:
        """Normalized performance per dollar relative to DRAM-only."""
        if self.slowdown <= 0:
            raise ValueError(f"slowdown must be > 0, got {self.slowdown}")
        return self.cost_saving / self.slowdown


def cost_effectiveness(
    workload: str,
    flatflash_elapsed_ns: int,
    dram_only_elapsed_ns: int,
    dram_gb: float,
    ssd_gb: float,
    dataset_gb: float,
    model: DollarCostModel = DollarCostModel(),
) -> CostEffectiveness:
    """Build a Table 3 row from two measured runs and the capacity plan."""
    if dram_only_elapsed_ns <= 0 or flatflash_elapsed_ns <= 0:
        raise ValueError("elapsed times must be > 0")
    slowdown = flatflash_elapsed_ns / dram_only_elapsed_ns
    saving = model.dram_only_cost(dataset_gb) / model.hybrid_cost(dram_gb, ssd_gb)
    return CostEffectiveness(workload=workload, slowdown=slowdown, cost_saving=saving)
