"""The live service's read surface, recomputed from the engine's arrays.

The oracle of the read contract (docs/service.md, "Cost of a read"):
the core answers from a census it took at the last mutation, so the
tests recount ``engine.states`` / ``engine.alive`` themselves, sharing
no code with ``RoundEngine.counts`` or :mod:`repro.service.core`.
"""

import numpy as np


def census_from_scratch(core):
    """(counts, alive) from the engine's arrays, sharing no code with it."""
    engine = core.live.engine
    states = np.asarray(engine.states)[np.asarray(engine.alive, dtype=bool)]
    counts = {
        name: int((states == index).sum())
        for index, name in enumerate(engine.state_names)
    }
    return counts, int(states.size)


def answers_from_scratch(core):
    """What every census query must say, recomputed from the arrays."""
    counts, alive = census_from_scratch(core)
    fractions = {s: c / alive if alive else 0.0 for s, c in counts.items()}
    top = max(counts.values())
    return {
        "status": {"alive": alive, "events": core.log.next_seq},
        "counts": {"counts": counts, "alive": alive},
        "fractions": {"fractions": fractions, "alive": alive},
        "equilibrium": {"fractions": fractions},
        "majority": {
            "count": top,
            "leader": min(s for s, c in counts.items() if c == top),
            "strict_majority": bool(alive and top * 2 > alive),
        },
    }


def assert_answers_match_arrays(core):
    for op, expected in answers_from_scratch(core).items():
        answer = core.query(op)
        assert {k: answer[k] for k in expected} == expected, op
        assert answer["period"] == core.live.period


def scribble(answer):
    """Ruin an answer in place, nested dicts first, as a careless caller might."""
    for value in answer.values():
        if isinstance(value, dict):
            value.clear()
    answer.clear()
