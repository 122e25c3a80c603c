"""Minimal qubit linear algebra for in-plane pure states.

States live on the great circle of the Bloch sphere spanned by the real
combinations of |0> and |1>, so a single angle fixes a state.  Effects and
POVMs are kept as full 2x2 complex matrices so the Born rule stays generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Exact-arithmetic constructions (projectors, hand-built matrices).
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12
# Completeness sums coming out of optimization carry more float noise.
COMPLETENESS_TOL = 1e-9
# The largest eigenvalue of a POVM member, and Born weight: a sum that misses
# I by COMPLETENESS_TOL entrywise misses it by twice that in operator norm.
EFFECT_MAX = 1.0 + 2.0 * COMPLETENESS_TOL + PSD_TOL

_IDENTITY = np.eye(2, dtype=complex)


def identity_matrix() -> np.ndarray:
    """2x2 identity, the unit effect of every POVM."""
    return _IDENTITY.copy()


@dataclass(frozen=True)
class PureState:
    """A qubit pure state cos(angle)|0> + sin(angle)|1>.

    The angle is normalized into [0, 2*pi) at construction so states compare
    by a unique representative.  The amplitudes come from the angle as
    given, before that rounding, so the states at -x and x are exact mirror
    images in floats.
    """

    angle: float
    amplitudes: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"state angle must be finite, got {self.angle!r}")
        object.__setattr__(self, "amplitudes", (math.cos(self.angle), math.sin(self.angle)))
        normalized = self.angle % TWO_PI
        if normalized >= TWO_PI:  # tiny negatives can round the modulo up to 2*pi
            normalized = 0.0
        object.__setattr__(self, "angle", normalized)

    @property
    def ket(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=float)

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a complex 2x2 matrix."""
        k = self.ket.astype(complex)
        return np.outer(k, k.conj())


def make_state(angle: float) -> PureState:
    """Build the pure state at `angle` radians from |0> on the great circle."""
    return PureState(float(angle))


def confusability(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2: the probability of mistaking one state
    for the other under a projective test.  Always in [0, 1]."""
    inner = float(np.dot(a.ket, b.ket))
    return min(1.0, max(0.0, inner * inner))


@dataclass(frozen=True, eq=False)  # compares by value, so unhashable
class Effect:
    """A positive semidefinite 2x2 measurement effect.

    Hermiticity and positivity are enforced at construction; the matrix is
    copied and frozen so shared references cannot mutate it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"effect must be a 2x2 matrix, got shape {m.shape}")
        if not np.abs(m - m.conj().T).max() <= HERMITIAN_TOL:
            raise ValueError("non-Hermitian effect")
        if not np.linalg.eigvalsh(m)[0] >= -PSD_TOL:  # eigenvalues ascend
            raise ValueError("non-positive effect")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Effect):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    @classmethod
    def projector(cls, state: PureState) -> "Effect":
        return cls(state.projector())


def born_probability(state: PureState, effect: Effect) -> float:
    """Born-rule outcome probability Tr[|psi><psi| E] = <psi|E|psi>.

    The raw trace may leave [0, 1] only by float noise: PSD_TOL below, and up
    to EFFECT_MAX above, the largest eigenvalue `Povm` accepts in a member.
    Anything farther out is rejected; the value is clamped into [0, 1].
    """
    k = state.ket.astype(complex)
    value = float(np.real(k.conj() @ effect.matrix @ k))
    if not -PSD_TOL <= value <= EFFECT_MAX:
        raise ValueError(
            f"effect gives Born weight {value!r} outside [0, 1]: invalid effect"
        )
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class Povm:
    """An ordered list of effects summing to the identity, one per outcome,
    none with an eigenvalue above EFFECT_MAX."""

    effects: tuple[Effect, ...]
    __hash__ = None  # type: ignore[assignment]  # its effects are unhashable

    def __post_init__(self) -> None:
        if not self.effects:
            raise ValueError("POVM needs at least one effect")
        stack = np.array([e.matrix for e in self.effects])
        if np.abs(stack.sum(axis=0) - _IDENTITY).max() > COMPLETENESS_TOL:
            raise ValueError("incomplete POVM")
        if not np.linalg.eigvalsh(stack)[:, -1].max() <= EFFECT_MAX:
            raise ValueError("oversized effect: an eigenvalue above 1")
        object.__setattr__(self, "effects", tuple(self.effects))

    def __len__(self) -> int:
        return len(self.effects)


def validate_povm(effects: Sequence[Effect | np.ndarray]) -> Povm:
    """Validate a list of effects (or raw 2x2 matrices) as a POVM.

    Raises ValueError("non-positive effect") for a negative eigenvalue,
    ValueError("incomplete POVM") when the effects do not sum to identity
    within 1e-9, and ValueError("oversized effect ...") for an eigenvalue
    above EFFECT_MAX, which the Born rule could not score.
    """
    wrapped = tuple(e if isinstance(e, Effect) else Effect(np.asarray(e)) for e in effects)
    return Povm(wrapped)


@dataclass(frozen=True)
class PriorDistribution:
    """Prior probabilities over the discrimination hypotheses."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        check_priors(np.array([probs]))
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.probabilities)


def check_priors(rows: np.ndarray) -> None:
    """Raise `ValueError` for the first row of `rows` (shape (N, n)) that is
    not a prior distribution: entries in [0, 1] that sum to 1 within 1e-12.
    The one prior check, for `PriorDistribution` and the batched
    finite-model checks alike."""
    in_range = (rows >= 0.0) & (rows <= 1.0)
    if not in_range.all():
        bad = tuple(rows[in_range.all(axis=1).argmin()].tolist())
        raise ValueError(f"prior entries must lie in [0, 1], got {bad}")
    totals = rows.sum(axis=1)
    summed = np.abs(totals - 1.0) <= 1e-12
    if not summed.all():
        raise ValueError(f"priors must sum to 1, got sum {totals[summed.argmin()].item()!r}")
