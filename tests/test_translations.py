"""The def9 and fan-out-compile translations locked against a golden record.

``tests/golden/translations.json`` holds, at d in {2, 3}, the sha256 of
``circuit_to_json`` of ``pattern_to_circuit_coherent`` and of
``pattern_to_fanout_circuit`` for every pattern of ``test_chains._patterns``,
or the error message for a pattern the translations reject.  Regenerate it
only on purpose:

    PYTHONPATH=src python tests/test_translations.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_chains import DIMENSIONS, _patterns

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import circuit_to_json
from quditmbqc.convert import pattern_to_circuit_coherent, pattern_to_fanout_circuit

GOLDEN = Path(__file__).parent / "golden" / "translations.json"
TRANSLATIONS = {
    "def9": pattern_to_circuit_coherent,
    "fanout-compile": pattern_to_fanout_circuit,
}


def _digest(translate, p) -> str:
    try:
        text = circuit_to_json(translate(p))
    except ValueError as exc:
        return f"error: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def translation_record() -> str:
    """The golden record as JSON text, one entry per line."""
    entries = []
    for d in DIMENSIONS:
        for name, p in _patterns(DimensionContext.of(d)).items():
            for kind, translate in TRANSLATIONS.items():
                entries.append({"d": d, "pattern": name, "translation": kind, "sha256": _digest(translate, p)})
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_translations_match_golden_hashes():
    assert translation_record() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(translation_record())
