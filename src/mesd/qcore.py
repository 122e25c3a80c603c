"""Minimal qubit linear algebra for in-plane pure states.

States live on the great circle of the Bloch sphere spanned by the real
combinations of |0> and |1>, so a single angle fixes a state.  Effects and
POVMs are kept as full 2x2 complex matrices, and validated as such, but the
Born rule on these real kets reads only their real parts.

Effects and POVMs are checked in closed form, without an eigensolver.  Of a
matrix [[a, b], [c, d]] the positivity tests read the lower triangle a, c, d,
the triangle `numpy.linalg.eigvalsh` reads by default, and the real parts of
a and d.  By Sylvester's criterion a Hermitian 2x2 matrix with diagonal
(x, y) and lower off-diagonal c is positive semidefinite exactly when
x >= 0, y >= 0 and x*y >= |c|*|c|.  lambda_min >= -PSD_TOL is that test on
M + PSD_TOL*I, and lambda_max <= EFFECT_MAX is that test on EFFECT_MAX*I - M.
It is exact up to the rounding of the two products, about eps times the
entries, far below PSD_TOL for effects of norm ~1.

All of it runs in Python floats on each matrix's four entries, read once.
Hermiticity compares real and imaginary parts, and a POVM is validated in
one pass over its members that sums them in member order, the order of
numpy's axis-0 sum, and runs each member's EFFECT_MAX test on the way.

Input that is not a real number, such as a complex (numpy orders one, and
casts it to float, by its real part), is a ValueError naming its field:
`within`, `real_float` and `real_array` are the checks this module,
`analytic` and `ontic` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Exact-arithmetic constructions (projectors, hand-built matrices).
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12
# Completeness sums coming out of optimization carry more float noise.
COMPLETENESS_TOL = 1e-9
# The largest eigenvalue of a POVM member, and Born weight: a sum that misses
# I by COMPLETENESS_TOL entrywise misses it by twice that in operator norm.
EFFECT_MAX = 1.0 + 2.0 * COMPLETENESS_TOL + PSD_TOL
_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest finite float
# numpy orders a complex number, and casts it to float, by its real part
# alone, with at most a ComplexWarning.  Its complex128 is a Python complex,
# its complex64 is not.
_COMPLEX = (complex, np.complexfloating)
# float() also parses text: a numeric str, bytes or bytearray.
_NOT_REAL = (*_COMPLEX, str, bytes, bytearray)


def within(value, low: float, high: float) -> bool:
    """low <= value <= high for a real `value`, and False for a complex one,
    one that floats do not order (a str, None) or an array of more than one
    element: a field's range check that also rejects every value that is not
    a real number."""
    try:
        return not isinstance(value, _COMPLEX) and low <= value <= high
    except (TypeError, ValueError):  # ValueError: an array's ambiguous truth value
        return False


def real_float(value) -> float:
    """float(value), but a complex `value`, numpy's included, or a text one
    (str, bytes, bytearray) raises the TypeError that float() raises for a
    Python complex."""
    if type(value) is not float and isinstance(value, _NOT_REAL):  # floats skip the test
        raise TypeError(f"a real number is required, not {type(value).__name__}")
    return float(value)


def real_array(values, name: str) -> np.ndarray:
    """`values` as an array, or `ValueError` naming `name` if it holds a
    complex, which a float cast would drop to its real part (or, inside an
    object array, end in float()'s TypeError), or text, which a float cast
    would parse."""
    array = np.asarray(values)
    if array.dtype.kind in "cUS":
        raise ValueError(f"{name} must be real, got dtype {array.dtype}")
    if array.dtype.kind == "O":
        for v in array.flat:
            if isinstance(v, _NOT_REAL):
                raise ValueError(f"{name} must be real, got {v!r}")
    return array


def identity_matrix() -> np.ndarray:
    """2x2 identity, the unit effect of every POVM."""
    return np.eye(2, dtype=complex)


@dataclass(frozen=True)
class PureState:
    """A qubit pure state cos(angle)|0> + sin(angle)|1>.

    The angle is kept as given, and the amplitudes and ket are computed from
    it, so the states at -x and x are exact mirror images in floats.  States
    compare by that angle: angles 2*pi apart give the same ket, up to
    rounding, but unequal states.
    """

    angle: float

    def __post_init__(self) -> None:
        if not within(self.angle, -_FLOAT_MAX, _FLOAT_MAX):
            raise ValueError(f"state angle must be finite, got {self.angle!r}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        return math.cos(self.angle), math.sin(self.angle)

    @property
    def ket(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=float)

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a complex 2x2 matrix."""
        k = self.ket.astype(complex)
        return np.outer(k, k.conj())


def make_state(angle: float) -> PureState:
    """Build the pure state at `angle` radians from |0> on the great circle.
    A complex angle, numpy's included, is a ValueError, not its real part."""
    try:
        angle = real_float(angle)
    except TypeError:
        raise ValueError(f"state angle must be a real number, got {angle!r}") from None
    return PureState(angle)


def confusability(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2: the probability of mistaking one state
    for the other under a projective test.  Always in [0, 1]."""
    inner = float(np.dot(a.ket, b.ket))
    return min(1.0, max(0.0, inner * inner))


def _is_psd(x: float, y: float, c: complex) -> bool:
    """Sylvester's criterion: the Hermitian 2x2 matrix with diagonal (x, y)
    and lower off-diagonal c is positive semidefinite.  NaN fails it."""
    r = math.hypot(c.real, c.imag)  # no OverflowError, unlike abs(c)
    if r > 1e150:  # r * r would overflow, and inf >= inf holds: compare at |c| = 1
        x, y, r = x / r, y / r, 1.0
    return x >= 0.0 and y >= 0.0 and x * y >= r * r


@dataclass(frozen=True, eq=False)  # compares by value, so unhashable
class Effect:
    """A positive semidefinite 2x2 measurement effect.

    Hermiticity and positivity are enforced at construction; the matrix is
    copied and frozen so shared references cannot mutate it.  Of
    [[a, b], [c, d]], |a - conj(a)|, |b - conj(c)| and |d - conj(d)| must be
    at most HERMITIAN_TOL; a NaN or infinite entry fails that test.
    Positivity is Sylvester's criterion on the lower triangle of
    M + PSD_TOL*I: x = Re a + PSD_TOL >= 0, y = Re d + PSD_TOL >= 0 and
    x*y >= |c|*|c|.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"effect must be a 2x2 matrix, got shape {m.shape}")
        (a, b), (c, d) = m.tolist()
        # |a - conj(a)| = hypot(Re a - Re a, 2 Im a), and Re a - Re a is 0,
        # or NaN if Re a is not finite; likewise for d
        if not (math.isfinite(a.real) and math.isfinite(d.real)
                and abs(a.imag + a.imag) <= HERMITIAN_TOL
                and abs(d.imag + d.imag) <= HERMITIAN_TOL
                and math.hypot(b.real - c.real, b.imag + c.imag) <= HERMITIAN_TOL):
            raise ValueError("non-Hermitian effect")
        if not _is_psd(a.real + PSD_TOL, d.real + PSD_TOL, c):
            raise ValueError("non-positive effect")
        m.setflags(write=False)
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
    The amplitudes (x, y) are real, so the trace is
    x*x*Re a + x*y*Re(b + c) + y*y*Re d of the effect [[a, b], [c, d]].
    """
    x, y = state.amplitudes
    a, b, c, d = effect.matrix.ravel().tolist()
    value = x * x * a.real + x * y * (b + c).real + y * y * d.real
    if not -PSD_TOL <= value <= EFFECT_MAX:
        raise ValueError(
            f"effect gives Born weight {value!r} outside [0, 1]: invalid effect"
        )
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class Povm:
    """An ordered list of effects summing to the identity, one per outcome,
    none with an eigenvalue above EFFECT_MAX.

    The sum may miss I by COMPLETENESS_TOL in each entry.  lambda_max <=
    EFFECT_MAX is Sylvester's criterion on the lower triangle of
    EFFECT_MAX*I - M: with x = EFFECT_MAX - Re a and y = EFFECT_MAX - Re d,
    x >= 0, y >= 0 and x*y >= |c|*|c|.

    Both tests run in one pass over the members, in Python numbers: each
    entry is summed as a complex in member order, one float add each for its
    real and imaginary parts, so the sum is bit for bit numpy's axis-0 sum of
    the stacked matrices.  An incomplete POVM is reported before an
    oversized member.  Members must be `Effect`s (any iterable of them is
    kept as a tuple); `validate_povm` takes raw matrices.
    """

    effects: tuple[Effect, ...]
    __hash__ = None  # type: ignore[assignment]  # its effects are unhashable

    def __post_init__(self) -> None:
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("POVM needs at least one effect")
        sa = sb = sc = sd = 0j
        oversized = False
        for e in effects:
            if not isinstance(e, Effect):
                raise ValueError(
                    f"POVM members must be Effects, got {type(e).__name__}: "
                    "validate_povm takes raw matrices"
                )
            (a, b), (c, d) = e.matrix.tolist()
            sa, sb, sc, sd = sa + a, sb + b, sc + c, sd + d
            oversized = oversized or not _is_psd(EFFECT_MAX - a.real, EFFECT_MAX - d.real, c)
        if not (math.hypot(sa.real - 1.0, sa.imag) <= COMPLETENESS_TOL
                and math.hypot(sb.real, sb.imag) <= COMPLETENESS_TOL
                and math.hypot(sc.real, sc.imag) <= COMPLETENESS_TOL
                and math.hypot(sd.real - 1.0, sd.imag) <= COMPLETENESS_TOL):
            raise ValueError("incomplete POVM")
        if oversized:
            raise ValueError("oversized effect: an eigenvalue above 1")
        object.__setattr__(self, "effects", effects)

    def __len__(self) -> int:
        return len(self.effects)


def validate_povm(effects: Sequence[Effect | np.ndarray]) -> Povm:
    """Validate a list of effects (or raw 2x2 matrices) as a POVM.

    Raises ValueError("non-positive effect") for a negative eigenvalue,
    ValueError("incomplete POVM") when the effects do not sum to identity
    within 1e-9, and ValueError("oversized effect ...") for an eigenvalue
    above EFFECT_MAX, which the Born rule could not score.
    """
    return Povm([e if isinstance(e, Effect) else Effect(e) for e in effects])


@dataclass(frozen=True)
class PriorDistribution:
    """Prior probabilities over the discrimination hypotheses."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            probs = tuple([real_float(p) for p in self.probabilities])
        except TypeError:  # a complex, a sequence, or no sequence at all
            raise ValueError(
                f"priors must be a sequence of real numbers, got {self.probabilities!r}"
            ) from None
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
