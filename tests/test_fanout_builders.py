"""The fan-out builders locked against a golden record, and the number of
``Circuit`` objects each public compiler builds.

``tests/golden/fanout_builders.json`` holds the sha256 of ``circuit_to_json``
of ``build_generalized`` (both kinds, every coefficient vector of length 1 to
3 at d in {2, 3, 4, 5}, one hash per length), of ``parallelize_commuting``
with 1 to 3 diagonal layers and of ``controlled_pauli_constant_depth`` on
``helpers.random_controlled_pauli_circuit`` at d in {2, 3, 4, 6}.
Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_fanout_builders.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import random_controlled_pauli_circuit

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, circuit_to_json, lower_to_guni
from quditmbqc.convert import (
    build_generalized,
    circuit_to_pattern_standard,
    controlled_pauli_constant_depth,
    parallelize_commuting,
    pattern_to_fanout_circuit,
)
from quditmbqc.generate import random_guni_circuit
from quditmbqc.sim import Gate

GOLDEN = Path(__file__).parent / "golden" / "fanout_builders.json"


def _digest(*circuits: Circuit) -> str:
    return hashlib.sha256("".join(map(circuit_to_json, circuits)).encode()).hexdigest()


def _diagonal(ctx: DimensionContext, mains: tuple[int, ...], rng) -> Circuit:
    """A random layer of CZ powers, Z powers and phase gates on ``mains``."""
    d, ops = ctx.d, []
    for _ in range(3):
        i, j = (mains[int(x)] for x in rng.choice(len(mains), size=2, replace=False))
        ops.append(Operation(Gate.cz(int(rng.integers(1, d))), (i, j)))
        ops.append(Operation(Gate.z(int(rng.integers(1, d))), (i,)))
        ops.append(Operation(Gate.r(tuple(float(t) for t in rng.uniform(0, 6, size=d))), (j,)))
    return Circuit(ctx, mains, mains, mains, tuple(ops))


def _parallelized(d: int, layers: int, ancilla_ids: list[int] | None) -> Circuit:
    ctx, mains = DimensionContext.of(d), (1, 2, 3)
    rng = np.random.default_rng(10 * d + layers)
    b = Circuit(
        ctx,
        mains,
        mains,
        mains,
        (Operation(Gate.f(), (1,)), Operation(Gate.cx(), (1, 2)), Operation(Gate.v(tuple(rng.uniform(0, 6, size=d))), (3,))),
    )
    return parallelize_commuting(b, [_diagonal(ctx, mains, rng) for _ in range(layers)], ancilla_ids)


def fanout_builders_record() -> str:
    """The golden record as JSON text, one entry per line."""
    entries = []
    for d in (2, 3, 4, 5):
        ctx = DimensionContext.of(d)
        for kind in ("fanout", "mod"):
            for n in (1, 2, 3):
                built = [build_generalized(ctx, v, kind) for v in itertools.product(range(d), repeat=n)]
                entries.append({"builder": "build_generalized", "d": d, "case": f"{kind} n={n}", "sha256": _digest(*built)})
        for layers in (1, 2, 3):
            entries.append(
                {"builder": "parallelize_commuting", "d": d, "case": f"layers={layers}", "sha256": _digest(_parallelized(d, layers, None))}
            )
        ids = list(range(46, 40, -1))  # two ancilla registers of three, in reverse order
        entries.append(
            {"builder": "parallelize_commuting", "d": d, "case": "layers=3 ids", "sha256": _digest(_parallelized(d, 3, ids))}
        )
    for d in (2, 3, 4, 6):
        ctx = DimensionContext.of(d)
        for n, seed, locals_too in itertools.product((2, 3, 4), range(3), (False, True)):
            src = random_controlled_pauli_circuit(ctx, n, 4 * n, seed, locals_too=locals_too)
            case = f"n={n} seed={seed} locals={locals_too}"
            entries.append({"builder": "controlled_pauli_constant_depth", "d": d, "case": case, "sha256": _digest(controlled_pauli_constant_depth(src))})
        src = random_controlled_pauli_circuit(ctx, 3, 12, 7, locals_too=True)
        entries.append(
            {"builder": "controlled_pauli_constant_depth", "d": d, "case": "n=3 start=20", "sha256": _digest(controlled_pauli_constant_depth(src, 20))}
        )
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_fanout_builders_match_golden_hashes():
    assert fanout_builders_record() == GOLDEN.read_text()


def test_each_public_compiler_builds_one_circuit(monkeypatch):
    ctx = DimensionContext.of(3)
    pattern = circuit_to_pattern_standard(lower_to_guni(random_guni_circuit(ctx, 2, 6, 4)))
    source = random_controlled_pauli_circuit(ctx, 3, 3, 1)
    mains = (1, 2, 3)
    b = Circuit(ctx, mains, mains, mains, (Operation(Gate.f(), (1,)),))
    diagonals = [_diagonal(ctx, mains, np.random.default_rng(seed)) for seed in range(3)]
    built = []
    post_init = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__", lambda self: built.append(self) or post_init(self))
    for compile_once in (
        lambda: pattern_to_fanout_circuit(pattern),
        lambda: controlled_pauli_constant_depth(source),
        lambda: parallelize_commuting(b, diagonals),
    ):
        built.clear()
        compile_once()
        assert len(built) == 1


def test_one_diagonal_takes_no_ancilla_ids():
    ctx, mains = DimensionContext.of(2), (1,)
    b = Circuit(ctx, mains, mains, mains, ())
    diag = Circuit(ctx, mains, mains, mains, (Operation(Gate.z(), (1,)),))
    with pytest.raises(ValueError, match="need exactly 0 ancilla ids"):
        parallelize_commuting(b, [diag], ancilla_ids=[5])


if __name__ == "__main__":
    GOLDEN.write_text(fanout_builders_record())
