"""Seeded point-by-point inputs built from the fixture generator.

Matches come from ``simulate_match`` in ``scripts/make_dataset.py``, cycling
through its ``PLANS`` with per-match seeds derived from the workload seed.
Only whole matches are kept: a truncated tail match could leave too few
samples for the prediction folds. Missing cells are injected at the
fixture's ``MISSING_RATES``, again from the workload seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


MAKE_DATASET = Path("scripts") / "make_dataset.py"


def load_script(path):
    """A repository script, imported once as a module named after its file."""
    name = Path(path).stem
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look the module up while building
        spec.loader.exec_module(module)
    return sys.modules[name]


def simulate_matches(seed, salt, *, target_points=None, match_count=None,
                     length_range=None):
    """Whole simulated matches, in order, until a size target is reached.

    Stops at the first match that brings the total to ``target_points``, or
    after ``match_count`` matches. Matches whose length falls outside
    ``length_range`` (inclusive) are skipped.
    """
    md = load_script(MAKE_DATASET)
    matches = []
    total = 0
    k = 0
    while True:
        plan = md.PLANS[k % len(md.PLANS)]
        match_seed = int(np.random.SeedSequence([seed, salt, k]).generate_state(1)[0])
        match_id = f"bench-{salt}-{seed}-{k:04d}"
        k += 1
        rows = md.simulate_match(dataclasses.replace(plan, match_id=match_id), match_seed)
        if length_range and not length_range[0] <= len(rows) <= length_range[1]:
            continue
        matches.append(rows)
        total += len(rows)
        if target_points is not None and total >= target_points:
            return matches
        if match_count is not None and len(matches) == match_count:
            return matches


def inject_missing(rows, seed, salt):
    """Blank cells at the fixture's per-column rates, drawn from ``seed``."""
    md = load_script(MAKE_DATASET)
    rng = np.random.default_rng([seed, salt, 0x6D697373])  # "miss": apart from match seeds
    out = list(rows)
    n = len(out)
    for column, rate in md.MISSING_RATES.items():
        for idx in rng.choice(n, size=int(round(rate * n)), replace=False):
            out[idx] = dataclasses.replace(out[idx], **{column: None})
    return out


def missing_columns() -> tuple[str, ...]:
    """The columns the fixture generator leaves blank at fixed rates."""
    return tuple(load_script(MAKE_DATASET).MISSING_RATES)


def missing_patterns(rows):
    """Per-row tuple of the fixture's missing-rate columns that are absent."""
    columns = missing_columns()
    return [tuple(c for c in columns if getattr(r, c) is None) for r in rows]


def write_input(path, matches, seed, salt):
    """Write the matches (with injected gaps) as CSV; return their statistics."""
    from tennis_momentum.ingest import points_csv_text

    rows = inject_missing([r for m in matches for r in m], seed, salt)
    data = points_csv_text(rows, ad_token=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    patterns = [p for p in missing_patterns(rows) if p]
    return {
        "path": str(path),
        "sha256": hashlib.sha256(data).hexdigest(),
        "points": len(rows),
        "matches": len(matches),
        "match_ids": [m[0].match_id for m in matches],
        "longest_match": max(len(m) for m in matches),
        "incomplete_rows": len(patterns),
        "missing_patterns": len(set(patterns)),
    }
