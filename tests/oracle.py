"""Reference checks for the tests, written with numpy alone.

Nothing here imports the package, so a test that uses these helpers checks
the package against an independent statement of the basis rule: big-endian
index over the subsystems, with h and F_h read as 0 and v and F_v as 1.
The joint-table route states the CHSH cells from kets alone, and the closed
forms at the end state the laws the Monte Carlo samplers draw from.
"""

import functools
import math

import numpy as np

_BIT = {"h": 0, "v": 1, "F_h": 0, "F_v": 1}


def ket_index(*labels: str) -> int:
    """Big-endian basis index of one label per subsystem."""
    value = 0
    for label in labels:
        value = 2 * value + _BIT[label]
    return value


def ket(*labels: str) -> np.ndarray:
    """Product basis ket with one label per subsystem."""
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[ket_index(*labels)] = 1.0
    return amps


# the setting pairs (i, j) in the order of S = <A1B1> + <A1B0> + <A0B1> - <A0B0>
SETTINGS = ((1, 1), (1, 0), (0, 1), (0, 0))


def side_spectrum(setting: int) -> list[tuple[float, np.ndarray]]:
    """(outcome, 4x4 projector) pairs of one side's setting over (photon, friend).

    Setting 0 reads the friend's record: +1 on F_v, -1 on F_h. Setting 1 probes
    the coherence of |h,F_v> and |v,F_h>: +1 and -1 on (|h,F_v> +- |v,F_h>)/sqrt(2),
    0 on the span of |h,F_h> and |v,F_v>. Each entry is exactly 0, +-1/2 or 1.
    """
    def projector(*kets):
        return sum(np.outer(k, k) for k in kets)

    h_fh, h_fv, v_fh, v_fv = (ket(*labels).real for labels in
                              (("h", "F_h"), ("h", "F_v"), ("v", "F_h"), ("v", "F_v")))
    if setting == 0:
        return [(1.0, projector(h_fv, v_fv)), (-1.0, projector(h_fh, v_fh))]
    return [(1.0, 0.5 * projector(h_fv + v_fh)), (-1.0, 0.5 * projector(h_fv - v_fh)),
            (0.0, projector(h_fh, v_fv))]


@functools.cache
def joint_cells(i: int, j: int) -> tuple[tuple[tuple[float, float], ...], np.ndarray]:
    """Setting (i, j)'s outcomes (a, b), Alice's outer and Bob's inner, and the read-only
    (cells, 256) stack of their cells np.kron(Pa, Pb), each flattened."""
    pairs = [(a, b, np.kron(pa, pb).reshape(256))
             for a, pa in side_spectrum(i) for b, pb in side_spectrum(j)]
    stack = np.array([cell for _, _, cell in pairs])
    stack.setflags(write=False)
    return tuple((a, b) for a, b, _ in pairs), stack


@functools.cache
def nonzero_entries() -> np.ndarray:
    """The flat indices of the 256 entries that are nonzero in some cell of the four
    settings, in ascending order."""
    cells = np.concatenate([joint_cells(*pair)[1] for pair in SETTINGS])
    entries = np.flatnonzero(cells.any(axis=0))
    entries.setflags(write=False)
    return entries


def gram(source) -> np.ndarray:
    """G = x x^T + y y^T (x, y = Re psi, Im psi), flattened to 256 entries, of a state (any
    object with ``amplitudes``) or of an ensemble (items with ``weight`` and ``state``): the
    Born-weighted sum of its branches' G, started from the first term."""
    if hasattr(source, "amplitudes"):
        x, y = source.amplitudes.real, source.amplitudes.imag
        return (np.outer(x, x) + np.outer(y, y)).reshape(256)
    terms = [branch.weight * gram(branch.state) for branch in source]
    return sum(terms[1:], terms[0])


def joint_table(source, i: int, j: int, narrow: bool = False) -> np.ndarray:
    """Setting (i, j)'s joint probabilities sum(C * G), one numpy row sum per cell.

    By default each sum runs over all 256 entries. ``narrow`` sums only the
    ``nonzero_entries()``, in ascending order: the terms and grouping of the
    package's cached cell stack, so its tables and correlators match bit for bit.
    """
    _, stack = joint_cells(i, j)
    g = gram(source)
    if narrow:
        # C order: a numpy row sum groups a contiguous row's terms pairwise, and
        # stack[:, entries] alone is laid out in Fortran order
        stack, g = np.ascontiguousarray(stack[:, nonzero_entries()]), g[nonzero_entries()]
    return (stack * g).sum(axis=1)


def joint_terms(source, i: int, j: int, narrow: bool = False) -> list[float]:
    """Setting (i, j)'s correlator terms a*b * P(a, b) over ``joint_table``."""
    outcomes, _ = joint_cells(i, j)
    return [a * b * p for (a, b), p in zip(outcomes, joint_table(source, i, j, narrow).tolist())]


def is_projector(m) -> bool:
    """True iff ||m@m - m||_F <= 1e-12 and ||m - m^dagger||_F <= 1e-12."""
    m = np.asarray(m, dtype=complex)
    return bool(np.linalg.norm(m @ m - m) <= 1e-12 and np.linalg.norm(m - m.conj().T) <= 1e-12)


def checks_by_name(report) -> dict:
    """The checks of an algebra report, keyed by their names."""
    return {check.name: check for check in report.checks}


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of the fraction count / trials, count ~ Binomial(trials, p)."""
    return math.sqrt(p * (1.0 - p) / trials)


def truncated_exponential_moments(rate: float, duration: float) -> tuple[float, float]:
    """Mean and variance of an exponential time at ``rate`` conditioned on t <= duration.

    E[t | t <= T] = 1/rate - T/(e^(rate*T) - 1) and
    Var[t | t <= T] = 1/rate^2 - T^2 e^(rate*T)/(e^(rate*T) - 1)^2, written with
    e^-(rate*T) so that neither overflows; relative error below 1e-8 for rate*T >= 1e-3.
    """
    a = rate * duration
    tail = math.exp(-a) / -math.expm1(-a)  # 1 / (e^a - 1)
    mean = duration * (1.0 / a - tail)
    variance = duration ** 2 * (1.0 / a ** 2 - tail * (1.0 + tail))  # e^a / (e^a - 1)^2
    return mean, variance


def z_scores_within(z, k: float = 6.0) -> bool:
    """True iff N z-scores look standard normal at k of each statistic's own sigma.

    The mean must lie within k / sqrt(N) of 0 and the log of the ddof=1
    variance within k * sqrt(2 / (N - 1)) of 0 (its large-N sigma for normal
    z). On the log scale an error scaled by c moves the variance by 2 log(c)
    whether c is 2 or 1/2.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    return bool(abs(z.mean()) <= k / math.sqrt(n)
                and abs(math.log(z.var(ddof=1))) <= k * math.sqrt(2.0 / (n - 1)))
