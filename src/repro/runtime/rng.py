"""Random number sources.

The paper's experiments use the Mersenne Twister generator; we wrap
numpy's ``MT19937`` bit generator behind a small factory so every
simulation component draws from an explicitly seeded, independently
spawned stream.  Independent streams keep results reproducible even
when components are added or reordered (failure injection must not
perturb the protocol's sampling sequence).

It also holds the one checkpoint encoding of a generator: its MT19937
state as plain JSON (:func:`generator_state`) and the bounds-checked
way back (:func:`generator_from_state`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

#: Words in an MT19937 key; ``pos`` reads one of them, or 624 = refill.
_MT_WORDS = 624


class SnapshotError(ValueError):
    """A checkpoint that cannot be trusted (also ``repro.store``'s)."""


def make_generator(
    seed: Union[None, int, np.random.SeedSequence] = None,
) -> np.random.Generator:
    """A Mersenne Twister backed numpy Generator.

    ``seed`` is anything ``MT19937`` accepts: an int, ``None`` or a
    ``SeedSequence``.
    """
    return np.random.Generator(np.random.MT19937(seed))


def generator_state(rng: np.random.Generator) -> Dict[str, Any]:
    """A generator's position as plain JSON: ``{"key": [624 ints], "pos": int}``.

    MT19937's ``bit_generator.state`` is exactly ``{key, pos}``, with no
    spare word buffered between 32-bit draws, so this alone continues
    the stream (``tests/test_sampling.py``,
    ``test_a_state_round_trip_reproduces_the_stream``).
    """
    state = rng.bit_generator.state["state"]
    return {"key": state["key"].tolist(), "pos": int(state["pos"])}


def generator_from_state(state: Any) -> np.random.Generator:
    """Inverse of :func:`generator_state`; refuses anything else.

    Only a key of 624 integers in [0, 2**32) and an integer ``pos`` in
    [0, 624] pass: numpy's setter takes a larger ``pos``, which reads
    past the key or crashes the process on the next draw.
    """
    if not (
        isinstance(state, dict) and set(state) == {"key", "pos"}
        and type(state["pos"]) is int and 0 <= state["pos"] <= _MT_WORDS
        and isinstance(state["key"], list) and len(state["key"]) == _MT_WORDS
        and all(type(w) is int and 0 <= w < 2**32 for w in state["key"])
    ):
        raise SnapshotError(
            f"generator state: expected MT19937 {{'key': {_MT_WORDS} "
            f"integers in [0, 2**32), 'pos': an integer in [0, {_MT_WORDS}]}}"
        )
    rng = make_generator(0)
    rng.bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(state["key"], dtype=np.uint32),
            "pos": state["pos"],
        },
    }
    return rng


def spawn_seeds(seed, m: int) -> List[int]:
    """Derive ``m`` independent integer trial seeds from a root seed.

    ``seed`` may be an int, ``None``, or a sequence of ints (the
    ``SeedSequence`` entropy convention) -- passing e.g.
    ``(root_seed, domain_tag)`` derives a seed family that is
    independent of the family for the bare root seed, which is how the
    campaign runner keeps scenario randomness out of protocol streams.

    The multi-trial machinery (the serial and agent ensembles, the
    campaign runner, batched extinction measurement) runs ensembles
    of simulations whose per-trial engines each need their own seed.
    These are produced by hashing the root seed through numpy's
    ``SeedSequence`` -- the derived 64-bit words are deterministic and
    platform-stable for a fixed root seed, and the per-trial streams
    built from them are statistically independent of each other and of
    the root's own streams (each trial seed is re-hashed through its own
    ``SeedSequence`` when the trial engine is constructed).

    A root seed of ``None`` draws fresh OS entropy: the trial seeds are
    still independent, but the ensemble is not reproducible (record the
    returned seeds if replay matters).
    """
    if m < 0:
        raise ValueError(f"cannot spawn {m} seeds")
    if m == 0:
        return []
    words = np.random.SeedSequence(seed).generate_state(m, np.uint64)
    return [int(w) for w in words]


class RandomSource:
    """A seedable factory of independent Mersenne Twister streams.

    Each call to :meth:`stream` derives a child seed from the root
    ``SeedSequence``; streams are statistically independent and stable
    under the order they are requested in.
    """

    def __init__(self, seed: Optional[int] = None):
        self._sequence = np.random.SeedSequence(seed)
        self._children: Iterator[np.random.SeedSequence] = iter(())
        self.seed = seed
        self.root = np.random.Generator(np.random.MT19937(self._sequence))
        self._spawned = 0

    def child(self, label: str = "") -> np.random.SeedSequence:
        """Spawn the seed of a new independent stream.

        Spawning is what fixes a stream (its place in the spawn order);
        building the generator with :func:`make_generator` can wait for
        the stream's first draw.
        """
        self._spawned += 1
        return self._sequence.spawn(1)[0]

    def stream(self, label: str = "") -> np.random.Generator:
        """Spawn a new independent generator (label is documentation)."""
        return make_generator(self.child(label))

    def spawn(self, m: int) -> List[int]:
        """``m`` trial seeds for independent child simulations.

        Unlike :meth:`stream` (which hands out generators for the
        components of *one* simulation), ``spawn`` derives integer seeds
        for *whole child simulations* -- e.g. the trials of a
        :class:`~repro.runtime.batch_engine.BatchRoundEngine` ensemble.
        The result only depends on the root seed, never on how many
        streams have already been handed out, so engines and ensembles
        constructed from the same root seed agree on their trial seeds.
        """
        return spawn_seeds(self.seed, m)

    @property
    def spawned(self) -> int:
        """Number of streams handed out so far."""
        return self._spawned

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RandomSource(seed={self.seed}, spawned={self._spawned})"


def sample_other(
    rng: np.random.Generator, n: int, actors: np.ndarray, k: int
) -> np.ndarray:
    """Uniform samples from the group, excluding each actor itself.

    The paper's actions contact processes "selected uniformly at random
    from the group" other than the caller.  Drawing from ``n - 1`` slots
    and shifting the values at or above the caller's own id gives an
    exact uniform sample over the other ``n - 1`` processes with no
    rejection loop.

    Returns an ``(len(actors), k)`` array of target ids.
    """
    if len(actors) == 0:
        return np.empty((0, k), dtype=np.int64)
    if n < 2:
        raise ValueError("need at least two processes to sample others")
    targets = rng.integers(0, n - 1, size=(len(actors), k))
    return targets + (targets >= actors[:, None])
