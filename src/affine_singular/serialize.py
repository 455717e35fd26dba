"""Canonical JSON for reports.

Serialisation is canonical: keys are sorted and the layout is fixed, so equal
values produce identical bytes and byte equality certifies value equality.
"""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    """Stable rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
