"""PCIe interconnect model."""

from repro.interconnect.pcie import BarWindow, PCIeLink

__all__ = ["PCIeLink", "BarWindow"]
