"""The one writer of JSON documents.

Every document the program leaves on disk (``--json`` results, the
committed ``BENCH_*.json`` baselines and golden files, pinned fuzz
cases, campaign summaries) goes through :func:`write_json`, so they
share one layout: indent 1, a trailing newline, and keys sorted with
the ``origin`` column (the unprotected reference) last, so a newly
registered defense only ever adds lines to a committed record.
Streams (JSONL checkpoint lines), HTTP bodies and hash inputs are not
documents and keep ``json.dumps``.
"""
from __future__ import annotations

import json
import os
from typing import Any, Union


def ordered(node: Any) -> Any:
    """``node`` with every mapping's keys sorted, ``origin`` last, in
    nested mappings and lists alike."""
    if isinstance(node, dict):
        keys = sorted(node, key=lambda key: (key == "origin", key))
        return {key: ordered(node[key]) for key in keys}
    if isinstance(node, (list, tuple)):
        return [ordered(item) for item in node]
    return node


def write_json(path: Union[str, os.PathLike], document: Any) -> None:
    """Write ``document`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(ordered(document), handle, indent=1)
        handle.write("\n")
