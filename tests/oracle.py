"""Reference checks for the tests, written with numpy alone.

Nothing here imports the package, so a test that uses these helpers checks
the package against an independent statement of the basis rule: big-endian
index over the subsystems, with h and F_h read as 0 and v and F_v as 1.
The closed forms at the end state the laws the Monte Carlo samplers draw from.
"""

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
