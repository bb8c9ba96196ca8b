"""Data model of the sweep engine.

A *cell* is one independently runnable unit of the paper reproduction —
a figure, a table, one ablation, one fault-campaign scenario.  Its
execution produces a :class:`CellResult`: the markdown fragments the cell
contributes to EXPERIMENTS.md (possibly none, for pure data-producer
cells), the structured result rows, and a small dict of headline metrics
that feed ``BENCH_sweep.json``.

Everything here must be picklable: results cross a process boundary under
``--jobs N`` and are stored verbatim in the content-addressed cache.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CellResult:
    """What one cell execution produced.

    ``sections`` are the markdown fragments this cell contributes to the
    experiment document, in order (the document assembler joins all
    fragments with a single newline).  Data-only cells (the fault-campaign
    scenarios) leave it empty.
    """

    sections: List[str] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)


def markdown_block(text: str) -> str:
    """Fence a rendered table for EXPERIMENTS.md."""
    return "```\n" + text + "\n```\n"


def result_hash(result: CellResult) -> str:
    """Content hash of a cell result, for dependency-chained cache keys.

    Uses pickle rather than JSON so numpy scalars and other simulator
    value types hash without lossy conversion; for equal values built in
    the same structural order the byte stream is deterministic.
    """
    payload = pickle.dumps(
        (result.sections, result.rows, result.metrics), protocol=4
    )
    return hashlib.sha256(payload).hexdigest()


def json_ready(value: object) -> object:
    """Recursively convert a metrics value into plain JSON types.

    Numpy scalars expose ``item()``; tuples become lists; dict keys are
    stringified.  Anything else unserializable falls back to ``repr``.
    """
    if isinstance(value, dict):
        return {str(key): json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return json_ready(item())
        except (TypeError, ValueError):
            pass
    return repr(value)
