"""Rendering shared by the experiment drivers: plain-text tables and
the header of a paper artifact's JSON document."""
from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

#: The paper every artifact document reproduces.
PAPER = "Conditional Speculation (HPCA 2019)"


def artifact_document(artifact: str, **body: Any) -> Dict[str, Any]:
    """A paper artifact's JSON document: which artifact, the code
    version and the paper that produced it, then ``body``."""
    # Imported here: the package sets __version__ after its imports.
    from .. import __version__

    return {"artifact": artifact, "repro_version": __version__,
            "paper": PAPER, **body}


def percent(value: float, digits: int = 1) -> str:
    """0.128 -> '12.8%'."""
    return f"{value * 100:.{digits}f}%"


def text_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
               title: str = "") -> str:
    """Render an aligned text table (first column left, rest right)."""
    materialized: List[List[str]] = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(str(cell).ljust(widths[index]))
            else:
                parts.append(str(cell).rjust(widths[index]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)
