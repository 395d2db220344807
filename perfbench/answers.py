"""Canonical answer encodings, digests and the frozen goldens.

Answers are encoded by the benchmark's own code, iteratively, so that a
deep term never makes the check itself fail and a change to the
program's printers or JSON cannot pass for a change of answer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from qlam.term_syntax import App, Bottom, Bound, Const, Lam, Var, render_sort

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def encode_term(t) -> str:
    """Prefix encoding of a term; equal terms (up to binder hints) give
    equal strings."""
    out: list[str] = []
    sorts: dict = {}

    def sort(s) -> str:
        text = sorts.get(s)
        if text is None:
            text = sorts[s] = render_sort(s)
        return text

    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            out.append("@")
            stack.append(node.arg)
            stack.append(node.fn)
        elif isinstance(node, Lam):
            out.append("\\" + sort(node.var_sort))
            stack.append(node.body)
        elif isinstance(node, Var):
            out.append(f"v:{node.name}:{sort(node.sort)}")
        elif isinstance(node, Const):
            out.append(f"c:{node.name}:{sort(node.sort)}")
        elif isinstance(node, Bound):
            out.append(f"b:{node.index}")
        elif isinstance(node, Bottom):
            out.append(f"_:{sort(node.sort)}")
        else:
            raise TypeError(f"not a term: {node!r}")
    return " ".join(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def items_digest(items) -> str:
    return digest(json.dumps(items, sort_keys=True, default=str))


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str):
    path = golden_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_golden(workload: str, seed: int, items, item_digests) -> Path:
    """item_digests holds None for items that failed when frozen; those
    items are checked by the workload's invariants only."""
    path = golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "workload": workload,
        "seed": seed,
        "items": len(items),
        "items_digest": items_digest(items),
        "item_digests": list(item_digests),
    }
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path
