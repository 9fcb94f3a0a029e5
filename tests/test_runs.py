"""The seed -> outcome rule of sampled runs locked against a golden record.

A sampled ``run`` draws measurement k (in execution order) from the stream
spawned off the root seed with key ``(k,)``.  ``tests/golden/runs.json``
holds, at d in {2, 3, 4}, the outcomes of ``run(p, mode="sampled",
seed=s)`` on the all-zero input for every pattern of
``test_pattern.families``, seeds 0-7.  Each pattern has two entries,
``"lazy": false`` and ``"lazy": true``, recorded when the eager and the
lazy schedule both ran; their outcomes were equal, and the one schedule
now checks against both.  Only outcomes are recorded: they are integers, so the record does not
depend on how the linear algebra library rounds.  Regenerate it only on
purpose:

    PYTHONPATH=src python tests/test_runs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_pattern import families

from quditmbqc.pattern import run

GOLDEN = Path(__file__).parent / "golden" / "runs.json"
DIMENSIONS = (2, 3, 4)
SEEDS = range(8)


def run_record() -> str:
    """The golden record as JSON text, one entry per line: the measured
    qudits, then each seed's outcomes in that order."""
    entries = []
    for d in DIMENSIONS:
        for name, p in families(d).items():
            measured = p.measured_qudits()
            outcomes = [[run(p, mode="sampled", seed=s).outcomes[q] for q in measured] for s in SEEDS]
            for lazy in (False, True):
                entries.append({"d": d, "pattern": name, "lazy": lazy, "measured": list(measured), "outcomes": outcomes})
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_sampled_outcomes_match_golden_record():
    assert run_record() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(run_record())
