"""Session-wide fixtures plus the acceptance-summary terminal hook.

The five catalog members and every expensive grid/suite computation are
evaluated once per session and shared across test modules, keeping the full
run well inside the one-minute budget on a single core.
"""

import math

import numpy as np
import pytest

from legendrian_lab import geometry, operators, surfaces

#: Members with nonvanishing mean curvature (the interesting residual cases).
NON_MINIMAL = ("calabi_default", "mironov_121")

#: Members that are minimal, hence trivially satisfy every residual equation.
MINIMAL = ("geodesic_sphere", "calabi_minimal", "mironov_123")

ALL_MEMBERS = NON_MINIMAL + MINIMAL

#: The non-csL control F = (cos y * gamma(x), sin y), gamma a Legendrian curve in S^3.
CONTROL = surfaces.from_expression(
    (
        "cos(y)*cos(x)*exp(i*(x/2 - sin(2*x)/4))",
        "cos(y)*sin(x)*exp(-i*(x/2 + sin(2*x)/4))",
        "sin(y)",
    ),
    {},
    ((0.0, 2.0 * math.pi), (-1.2, 1.2)),
    periodic=(True, False),
)


def build_members() -> dict[str, surfaces.ImmersionSpec]:
    return {
        "calabi_default": surfaces.calabi(0.8, 0.6, 0.6, 0.8),
        "mironov_121": surfaces.mironov(1, 2, 1),
        "geodesic_sphere": surfaces.geodesic_sphere(),
        "calabi_minimal": surfaces.calabi(
            math.sqrt(2.0 / 3.0),
            1.0 / math.sqrt(3.0),
            1.0 / math.sqrt(2.0),
            1.0 / math.sqrt(2.0),
        ),
        "mironov_123": surfaces.mironov(1, 2, 3),
    }


@pytest.fixture(scope="session")
def members():
    return build_members()


@pytest.fixture(scope="session")
def residual_maps(members):
    """Per-member residual maps on the 16x16 half-offset verification grid."""
    return {
        name: operators.grid_residuals(spec, 16, 16)
        for name, spec in members.items()
    }


@pytest.fixture(scope="session")
def identity_reports(members):
    """identity_suite at 100 seed-0 interior points per member."""
    out = {}
    for name, spec in members.items():
        pts = surfaces.sample_points(spec, 100, seed=0)
        out[name] = operators.identity_suite(spec, pts)
    return out


@pytest.fixture(scope="session")
def calabi_energy(members):
    """((area, energy) at 64x64, (area, energy) at the doubled grid)."""
    spec = members["calabi_default"]
    return operators.energy_doubling(spec, (64, 64))


def _record_frames(monkeypatch, field):
    """``field(xs, degree)`` of every frame that ``operators`` builds, in order."""
    seen = []

    class RecordedFrame(geometry.ChartFrame):
        def __init__(self, F, xs, ys, degree):
            seen.append(field(xs, degree))
            super().__init__(F, xs, ys, degree)

    monkeypatch.setattr(operators, "ChartFrame", RecordedFrame)
    return seen


@pytest.fixture
def frame_widths(monkeypatch):
    """The width of every frame that ``operators`` builds, in order."""
    return _record_frames(monkeypatch, lambda xs, degree: np.size(xs))


@pytest.fixture
def frame_degrees(monkeypatch):
    """The degree of every frame that ``operators`` builds, in order."""
    return _record_frames(monkeypatch, lambda xs, degree: degree)


# -- acceptance summary --------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_record():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def record(number: int, ok: bool, detail: str) -> bool:
        _ACCEPTANCE_LINES.append(
            f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        )
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
