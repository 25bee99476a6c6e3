"""Shared fixtures: the expensive artifacts (fresh calibration constants and
the T = 2000 mean-square ladders) are computed once per session and reused by
the unit tests and the acceptance suite."""

import cmath
import math
import time
from fractions import Fraction

import pytest

from lerchzeta import ConfigError, afe, meansquare, oracles
from lerchzeta.oracles import _decompose, _hurwitz_table

MS_PAIRS = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1)))
MS_CHECKPOINTS = (250.0, 500.0, 1000.0, 2000.0)

_REPORT_LINES = []


def report(line: str) -> None:
    """Record an acceptance pass/fail line; echoed in the terminal summary."""
    _REPORT_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _REPORT_LINES:
            terminalreporter.line(line)


def hurwitz_at_cutoff(s: complex, alpha: float, cutoff: int) -> complex:
    """The value of hurwitz_euler_maclaurin(s, alpha) with its direct sum
    taken over n < cutoff instead of params.em_cutoff(s.imag): the refined
    value the step-halving checks compare against."""
    values, _ = _hurwitz_table(s.imag, (s.real,), (alpha,), cutoff)
    return complex(values[0, 0])


def lerch_at_cutoff(s: complex, alpha: float, lam, cutoff: int) -> complex:
    """The value of lerch_via_hurwitz(s, alpha, lam), its q Hurwitz
    components taken at the given cutoff."""
    q, parts = _decompose(alpha, lam)
    values, _ = _hurwitz_table(s.imag, (s.real,), [a for a, _ in parts],
                               cutoff)
    return cmath.exp(-s * math.log(q)) * sum(
        phase * value for (_, phase), value in zip(parts, values[0].tolist()))


@pytest.fixture
def oracle_refuses(monkeypatch):
    """oracle_refuses(height) makes the truncation rule the oracle applies
    refuse |t| = height, and leaves it as it is elsewhere: whatever takes
    its cutoff from the oracle's own rule refuses that height too, and a
    copy of the rule would not."""
    rule = oracles.em_cutoff

    def refuse(height):
        def refusing(t, q=1):
            if abs(t) == height:
                raise ConfigError(f"the oracle refuses |t| = {height:g} here")
            return rule(t, q)

        monkeypatch.setattr(oracles, "em_cutoff", refusing)

    return refuse


@pytest.fixture(scope="session")
def calibration():
    """Freshly fitted envelope constants (kind -> C_fit)."""
    return {kind: afe.envelope_fit(kind, afe.default_calibration_grid(kind))
            for kind in afe.KINDS}


def _ladders(method):
    start = time.perf_counter()
    out = {}
    for a, l in MS_PAIRS:
        out[(a, l)] = meansquare.mean_square_ladder(
            2000.0, a, l, method=method,
            checkpoints=MS_CHECKPOINTS)
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def afe_ladders():
    """(records by pair, elapsed seconds), split-sum integrand."""
    return _ladders("afe")


@pytest.fixture(scope="session")
def oracle_ladders():
    """(records by pair, elapsed seconds), Euler-Maclaurin integrand."""
    return _ladders("oracle")
