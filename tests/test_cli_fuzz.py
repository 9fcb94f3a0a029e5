"""The CLI contract under JSON mutations.

One value anywhere in a valid circuit or pattern document is replaced by
a small value of any JSON type; ``analyze``, ``run --mode all-branches``,
``rewrite complete`` and ``convert def9`` must each exit 0, 1 or 2 and let
no exception escape ``main``.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import circuit_to_json
from quditmbqc.cli import main
from quditmbqc.convert import circuit_to_pattern_standard
from quditmbqc.generate import random_guni_circuit
from quditmbqc.pattern import pattern_to_json

_CIRCUIT = random_guni_circuit(DimensionContext.of(3), 2, 3, 1)
DOCUMENTS = {
    "circuit": json.loads(circuit_to_json(_CIRCUIT)),
    "pattern": json.loads(pattern_to_json(circuit_to_pattern_standard(_CIRCUIT))),
}
COMMANDS = (
    ("analyze",),
    ("run", "--mode", "all-branches"),
    ("rewrite", "complete"),
    ("convert", "def9"),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4), st.text("aEMXZ1", max_size=2)
)
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=2), st.dictionaries(st.text("01a", max_size=1), SCALARS, max_size=2)
)


def _paths(node, path=()):
    """The path of every value below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=150, database=None, deadline=None)
@given(data=st.data())
def test_one_mutated_value_never_escapes_the_exit_codes(kind, data):
    doc = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    mutated = _replaced(doc, path, data.draw(VALUES, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "in.json", str(Path(tmp) / "out.json")
        source.write_text(json.dumps(mutated))
        for command in COMMANDS:
            assert main([*command, "--in", str(source), "--out", out]) in (0, 1, 2)
