"""EXPERIMENTS.md assembly from cell results.

The document is a fixed sequence of parts: static prose fragments and
references to document-producing cells.  Assembly is independent of
execution order — a parallel sweep and a serial one feed the same parts
in the same sequence, so the output is byte-identical.

``write_document`` writes through a temp file and ``os.replace`` so an
interrupted run can never leave a truncated EXPERIMENTS.md behind.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import List, Mapping, Tuple, Union

from repro.sweep.model import CellResult

HEADER = """# FlatFlash Reproduction — Experiment Results

Generated by `python -m repro sweep` (parallel, content-addressed cache)
or `python -m repro sweep --jobs 1 --no-cache` (serial) — both assemble
the same cells and emit byte-identical output.  Every table and figure of
the paper's evaluation (§5) is regenerated by the simulator at reduced
scale (capacity *ratios* preserved — see DESIGN.md §2).  Absolute numbers
are simulated nanoseconds, not the authors' testbed; what must match — and
is asserted on these rows by `tests/test_paper_shapes.py` — is the *shape*:
who wins, by roughly what factor, and where the trends point.

"""

ABLATIONS_HEADER = "## Ablations — quantifying the design choices (§3)\n"
ABLATIONS_PROSE = (
    "Beyond the paper's own figures: each mechanism toggled in\n"
    "isolation.  Adaptive promotion avoids promote-always's page-movement\n"
    "storm; the PLB hides the 12.1 us copy; RRIP resists scans; cacheable\n"
    "(CAPI) MMIO collapses hot-line re-reads; per-transaction logging\n"
    "breaks the centralized log's lock ceiling.\n"
)


@dataclass(frozen=True)
class Ref:
    """A placeholder resolved to a cell's markdown fragments at assembly."""

    cell: str


Part = Union[str, Ref]

#: The full document, in order.
DOCUMENT: Tuple[Part, ...] = (
    Ref("scorecard"),
    Ref("table2"),
    Ref("fig8"),
    Ref("fig9a"),
    Ref("fig9b"),
    Ref("fig10"),
    Ref("fig11_12"),
    Ref("fig13"),
    Ref("fig14"),
    Ref("fig14d"),
    Ref("table1"),
    Ref("table3"),
    ABLATIONS_HEADER,
    ABLATIONS_PROSE,
    Ref("ablations:promotion-policy"),
    Ref("ablations:plb"),
    Ref("ablations:cache-policy"),
    Ref("ablations:cacheable-mmio"),
    Ref("ablations:prefetch"),
    Ref("ablations:sequential-fairness"),
    Ref("ablations:logging-scheme"),
    Ref("device-tech"),
    Ref("interference"),
    Ref("breakdown"),
)


def document_cells() -> List[str]:
    """Names of every cell the document references, in document order."""
    return [part.cell for part in DOCUMENT if isinstance(part, Ref)]


def assemble(results: Mapping[str, CellResult]) -> str:
    """Build the experiment document from cell results.

    Raises ``KeyError`` when a referenced cell is missing (a filtered
    sweep cannot produce the document).
    """
    sections: List[str] = [HEADER]
    for part in DOCUMENT:
        if isinstance(part, Ref):
            missing = part.cell not in results
            if missing:
                raise KeyError(
                    f"cell {part.cell!r} missing from results; "
                    "the document needs every referenced cell"
                )
            sections.extend(results[part.cell].sections)
        else:
            sections.append(part)
    return "\n".join(sections)


def write_document(path: "os.PathLike[str]", content: str) -> None:
    """Atomically write ``content`` to ``path`` (temp file + replace)."""
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
