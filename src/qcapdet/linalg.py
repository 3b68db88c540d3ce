"""Dense complex linear algebra for small Hilbert spaces.

Everything works in the fixed computational basis: transposition and complex
conjugation below always refer to that basis, and the operator/vector
correspondence ``double_ket`` is taken in the same basis.  All entropies are
in bits (base-2 logarithms), with the convention 0*log2(0) = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError

# Tolerances. Subsystem dimensions stay below ~16, so double precision
# leaves orders of magnitude of headroom around each of these.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-10
PROB_TOL = 1e-9
RECON_TOL = 1e-9
TP_TOL = 1e-9
SUM_RULE_TOL = 1e-8  # outcome weights: sum_i t_i = dim_out * rank
PINV_CUTOFF = 1e-12  # relative to the largest eigenvalue
# The largest dimension whose square does not exceed the largest float, so
# that 1/d^2 and d^2 - 1 stay finite floats.
MAX_FLOAT_DIMENSION = math.isqrt(int(np.finfo(np.float64).max))


def check_dimension(d) -> None:
    """Refuse a subsystem dimension below 2, NaN included, not an integer,
    or whose square exceeds the largest float; an integral float such as
    2.0 passes."""
    if not d >= 2:
        raise ValueError(f"dimension {d} must be at least 2")
    if not (isinstance(d, int) or float(d).is_integer()):  # an int of any size, without converting it
        raise ValueError(f"dimension {d} must be an integer")
    if d > MAX_FLOAT_DIMENSION:  # compared exactly, an int without converting it
        raise ValueError(f"dimension {d} too large: its square exceeds the largest float")


def check_within(what: str, x, low, high) -> None:
    """Refuse a value, or the first entry in order of an array of them,
    outside [low, high]; NaN fails too."""
    values = np.asarray(x)
    for value in values.reshape(-1).tolist() if values.ndim else (x,):  # Python's comparisons, which refuse complex
        if not low <= value <= high:
            raise ValueError(f"{what} {value} outside [{low}, {high}]")


def _frozen(obj, **fields):
    """Store a checked value's fields in one step, past a frozen dataclass's
    setattr, each array among them made read-only so that what was checked
    cannot change; returns ``obj``, the value."""
    for value in fields.values():
        if type(value) is np.ndarray:  # cheaper than isinstance; the program stores plain arrays only
            value.setflags(write=False)
    vars(obj).update(fields)
    return obj


def check_rows(error: type, faults, messages: Sequence, names: Sequence[str] = ()) -> None:
    """Raise ``error`` for the first failing row of a stack, at its first
    failing check: ``faults`` holds a boolean per row, or per (check, row),
    and ``messages`` one function of the row's index per check.  The text is
    prefixed by the row's name when ``names`` are given; ``row`` is its index."""
    faults = np.asarray(faults)
    if faults.any():
        faults = faults.reshape(len(messages), -1)  # (check, row)
        k = int(np.argmax(faults.any(axis=0)))
        exc = error((f"{names[k]}: " if names else "") + messages[int(np.argmax(faults[:, k]))](k))
        exc.row = k
        raise exc


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidStateError("matrix contains non-finite entries")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dagger) / 2, for each matrix of a stack (..., n, n)."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def density_spectra(stack: np.ndarray, names: Sequence[str] = (), vectors: bool = False):
    """Eigenvalues of each matrix of a complex stack (..., n, n), one eigvalsh
    for the whole stack, after checking that each is a density matrix:
    square, with finite entries, Hermitian, of unit trace and positive
    semidefinite.  An error names the first failing matrix of a stack by
    ``names`` and gives its index as ``row``.  With ``vectors`` (one
    matrix), the check's one decomposition, as hermitian_eigen gives it."""
    n = stack.shape[-1]
    if stack.shape[-2] != n:
        raise DimensionMismatchError(f"density matrix must be square, got {stack.shape}")
    if not np.isfinite(stack).all():  # never decomposed; the rows before the first such row are checked first
        finite = np.isfinite(stack).all(axis=(-2, -1)).reshape(-1)
        if first := int(np.argmin(finite)):
            density_spectra(stack.reshape(-1, n, n)[:first], names)
        check_rows(InvalidStateError, ~finite, (lambda k: "matrix contains non-finite entries",), names)
    adjoint = stack.conj().swapaxes(-1, -2)
    spectrum = _descending_eigh(stack) if vectors else None
    evals = spectrum.eigenvalues if vectors else np.linalg.eigvalsh((stack + adjoint) / 2.0)
    trace = stack.trace(axis1=-2, axis2=-1)
    asymmetry = np.abs(stack - adjoint)
    if asymmetry.max() > HERMITIAN_TOL or abs(trace - 1.0).max() > TRACE_TOL or evals.min() < -PSD_TOL:
        messages = (
            lambda k: "density matrix is not Hermitian within tolerance",
            lambda k: f"density matrix trace {trace.reshape(-1)[k]} differs from 1",
            lambda k: f"density matrix has negative eigenvalue {evals.reshape(-1, n)[k].min()}",
        )
        faults = asymmetry.max(axis=(-2, -1)) > HERMITIAN_TOL, abs(trace - 1.0) > TRACE_TOL, evals.min(-1) < -PSD_TOL
        check_rows(InvalidStateError, faults, messages, names)
    return spectrum if vectors else evals


def validate_density_matrix(rho) -> np.ndarray:
    """Check finiteness, Hermiticity, positivity and unit trace; return the array.

    Raises InvalidStateError if any invariant fails beyond tolerance.
    """
    rho = as_complex_matrix(rho)
    density_spectra(rho)
    return rho


def probability_vectors(p: np.ndarray, names: Sequence[str] = ()) -> np.ndarray:
    """Validate each row (last axis) of a real array as a probability vector
    and clamp it to [0, 1] entrywise.  An error names the first failing row
    by ``names`` and gives its index as ``row``.  A NaN entry fails."""
    if p.shape[-1] == 0:
        raise InvalidStateError("probability vector has no entries")
    if not (p.min() >= -PROB_TOL and p.max() <= 1.0 + PROB_TOL and np.abs(p.sum(axis=-1) - 1.0).max() <= PROB_TOL):
        low, high, total = (np.reshape(x, -1) for x in (p.min(axis=-1), p.max(axis=-1), p.sum(axis=-1)))
        messages = (
            lambda k: f"probability entries outside [0,1]: min={low[k]}, max={high[k]}",
            lambda k: f"probabilities sum to {total[k]}, not 1",
        )
        faults = ~((low >= -PROB_TOL) & (high <= 1.0 + PROB_TOL)), ~(abs(total - 1.0) <= PROB_TOL)
        check_rows(InvalidStateError, faults, messages, names)
    return p.clip(0.0, 1.0)


def probability_vector(values) -> np.ndarray:
    """Validate and clamp a probability vector to [0, 1] entrywise."""
    return probability_vectors(np.asarray(values, dtype=float).reshape(-1))


def von_neumann_entropy(rho) -> float:
    """Spectral entropy of a density matrix, in bits; checked as by
    validate_density_matrix, from the same eigenvalues."""
    return spectral_entropies(density_spectra(as_complex_matrix(rho))[None])[0]


def spectral_entropies(evals: np.ndarray) -> list[float]:
    """Entropy, in bits, of each row of a stack of spectra (N, n) that a
    density check has passed."""
    return probability_entropies(evals.clip(0.0, None)).tolist()


def reduce_rows(reduce, keys: np.ndarray, *stacks: np.ndarray) -> np.ndarray:
    """reduce(key, *(x[rows] for x in stacks)), a value per row, over the
    rows of each distinct key in ``keys``, one call per key, gathered in row
    order.  numpy and BLAS sum a row in blocks that depend on its length, so
    a reduction that depends on a row's length alone, given as its key,
    gives each row exactly what it gives that row alone."""
    if keys.min() == keys.max():
        return reduce(keys[0], *stacks)
    out = np.empty(len(keys))
    for key in sorted(set(keys.tolist())):  # not np.unique, whose first call imports numpy.ma
        rows = keys == key
        out[rows] = reduce(key, *(x[rows] for x in stacks))
    return out


def probability_entropies(p: np.ndarray) -> np.ndarray:
    """Entropy, in bits, of each row of a stack (N, n) of nonnegative
    weights, unchecked: 0 - sum x log2 x (so +0.0, not -0.0, at zero) over
    the row's positive entries, in order, so that neither its zero entries
    nor the rows around it change its bits; the one formula for every
    Shannon and spectral entropy."""
    if p.min() > 0.0:
        return 0.0 - (p * np.log2(p)).sum(axis=-1)
    positive = p > 0.0
    if len(p) == 1:  # one point's row, compacted directly: a third of the cost of grouping rows by count
        x = p[positive]
        return 0.0 - (x * np.log2(x)).sum(keepdims=True)
    terms = p * np.log2(np.where(positive, p, 1.0))
    count = np.count_nonzero(positive, axis=-1)
    return 0.0 - reduce_rows(lambda c, x, keep: x[keep].reshape(len(x), c).sum(axis=-1), count, terms, positive)


def shannon_entropy(p) -> float:
    """Entropy of a probability vector, in bits."""
    return float(probability_entropies(probability_vector(p)[None])[0])


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x) for x in [0, 1]."""
    check_within("binary entropy argument", x, 0, 1)
    return float(probability_entropies(np.array([[x, 1.0 - x]]))[0])


def double_ket(a) -> np.ndarray:
    """Unfold a square operator A into the bipartite vector with
    component (n*d + m) equal to A[n, m]."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"double_ket needs a square matrix, got {a.shape}")
    return a.reshape(-1).copy()


def partial_trace_reference(m, dim_ref: int, dim_sys: int) -> np.ndarray:
    """Trace out the first tensor factor of an operator on dim_ref * dim_sys."""
    m = as_complex_matrix(m)
    n = dim_ref * dim_sys
    if m.shape != (n, n):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not factor as {dim_ref}x{dim_sys}")
    return np.einsum("iaib->ab", m.reshape(dim_ref, dim_sys, dim_ref, dim_sys))


def partial_trace_system(m, dim_ref: int, dim_sys: int) -> np.ndarray:
    """Trace out the second tensor factor of an operator on dim_ref * dim_sys."""
    m = as_complex_matrix(m)
    n = dim_ref * dim_sys
    if m.shape != (n, n):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not factor as {dim_ref}x{dim_sys}")
    return np.einsum("iaja->ij", m.reshape(dim_ref, dim_sys, dim_ref, dim_sys))


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues


def hermitian_eigen(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = as_complex_matrix(m)
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise InvalidStateError("matrix is not Hermitian within tolerance")
    return _descending_eigh(m)


def _descending_eigh(m: np.ndarray) -> SpectralDecomposition:
    evals, evecs = np.linalg.eigh(hermitian_part(m))
    order = np.argsort(evals)[::-1]
    return SpectralDecomposition(evals[order].copy(), evecs[:, order].copy())


def rank_cutoff(evals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one rank rule: which eigenvalues lie above PINV_CUTOFF times the
    largest, and their inverses, zero for the eigenvalues cut off."""
    keep = evals > PINV_CUTOFF * max(evals.max(), 0.0)
    return keep, np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)


def matrix_sqrt(m) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix."""
    evals, evecs = hermitian_eigen(m)
    if evals.min() < -PSD_TOL:
        raise InvalidStateError(f"matrix_sqrt: negative eigenvalue {evals.min()}")
    root = np.sqrt(np.clip(evals, 0.0, None))
    return (evecs * root) @ evecs.conj().T


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a PSD Hermitian matrix.

    Eigenvalues above PINV_CUTOFF times the largest one are inverted,
    the rest are zeroed.
    """
    evals, evecs = hermitian_eigen(m)
    if evals.min() < -PSD_TOL:
        raise InvalidStateError(f"pseudo_inverse: negative eigenvalue {evals.min()}")
    _, inv = rank_cutoff(evals)
    return (evecs * inv) @ evecs.conj().T


def psd_rank(m) -> int:
    """Numerical rank of a PSD matrix, with the same cutoff as pseudo_inverse."""
    keep, _ = rank_cutoff(np.linalg.eigvalsh(hermitian_part(as_complex_matrix(m))))
    return int(np.count_nonzero(keep))
