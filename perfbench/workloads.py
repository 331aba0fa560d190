"""The benchmark's workloads: CLI argument lists and input files made from a seed.

Each workload is a fixed list of operations.  An operation is one
``legendrian-lab`` command line plus what its output must show (``Expect``).
The program sees only these argument lists and the files written here; the
seed draws the non-minimal catalog parameters and the ``--seed`` flag.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Failing checks of ``verify`` on the non-csL control: exactly the csL family.
CONTROL_FAILING = frozenset({"csl_residual", "csl_willmore_residual", "obstruction_trace"})

#: The non-csL control F = (cos y * gamma(x), sin y), gamma a Legendrian curve in S^3.
CONTROL_EXPR = """\
f1 = cos(y)*cos(x)*exp(i*(x/2 - sin(2*x)/4))
f2 = cos(y)*sin(x)*exp(-i*(x/2 + sin(2*x)/4))
f3 = sin(y)
periodic = true, false
y_range = -1.2, 1.2
"""

#: The default flat torus (calabi r = 0.8, 0.6, 0.6, 0.8) in the expression language.
TORUS_PARAMS = {"r1": 0.8, "r2": 0.6, "r3": 0.6, "r4": 0.8}
TORUS_EXPR = """\
f1 = r1*r3*exp(i*((r2/r1)*x + (r4/r3)*y))
f2 = r1*r4*exp(i*((r2/r1)*x - (r3/r4)*y))
f3 = r2*exp(-i*(r1/r2)*x)
params = r1=0.8, r2=0.6, r3=0.6, r4=0.8
"""

#: Scales every tolerance by 1e-6, so that a passing surface must fail.
TIGHT_CONFIG = "[tolerances]\nscale = 1e-6\n"

#: The two end-to-end call metrics of each workload, in the order
#: (primary_s, secondary_s) of BENCHMARK.json.
CALL_METRICS = {
    "catalog-16": ("verify_s", "classify_s"),
    "mironov-64": ("verify_s", "verify_serial_s"),
    "quadrature": ("energy_s", "table_s"),
}

WORKLOADS = tuple(CALL_METRICS)

#: Verdicts forced by the mathematics: mironov (1, 2, 1) is csL and
#: csL-Willmore but not minimal; the control is Legendrian and not csL, hence
#: (since <W, R> = -Div(JH)) not Willmore-Legendrian either.
MIRONOV_VERDICTS = {
    "legendrian": "yes",
    "csl": "yes",
    "csl_willmore": "yes",
    "minimal": "no",
    "willmore_legendrian": "no",
}
CONTROL_VERDICTS = {"legendrian": "yes", "minimal": "no", "csl": "no", "willmore_legendrian": "no"}


@dataclass(frozen=True)
class Expect:
    """What one operation's exit code and JSON output must show."""

    exit_code: int = 0
    #: Exact set of FAIL checks; None means "any non-empty set".
    failing: frozenset[str] | None = frozenset()
    #: classify verdicts that must hold (name -> yes/no).
    verdicts: dict[str, str] | None = None
    #: Closed-form Willmore energy per chart rectangle.
    energy: float | None = None
    #: Closed-form table values at the representative point (row -> flat list).
    table: dict[str, list[float]] | None = None
    #: The surface is csL, so its grid-max csL-Willmore residual is exactly 0.
    csl_member: bool = False
    #: Name of an operation whose ``checks`` must be identical to this one's.
    same_checks_as: str | None = None


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    name: str
    metric: str  # the end-to-end call metric it feeds (verify_s, ...)
    argv: tuple[str, ...]
    points: int  # chart points requested: nx*ny per grid
    workers: int = 1
    expect: Expect = field(default_factory=Expect)


def calabi_energy(r1: float, r2: float, r3: float, r4: float) -> float:
    """((mu1^2 + mu2^2)/4 + 1) * r1 * 4 pi^2: |H| is constant and sqrt(det g) = r1."""
    mu1 = (2.0 * r2 * r2 - r1 * r1) / (r1 * r2)
    mu2 = (r4 * r4 - r3 * r3) / (r1 * r3 * r4)
    return ((mu1 * mu1 + mu2 * mu2) / 4.0 + 1.0) * r1 * 4.0 * math.pi**2


def calabi_table(r1: float, r2: float, r3: float, r4: float) -> dict[str, list[float]]:
    """Metric diag(1, r1^2), mean curvature (mu1, mu2), |H|^2 and flat curvature."""
    mu1 = (2.0 * r2 * r2 - r1 * r1) / (r1 * r2)
    mu2 = (r4 * r4 - r3 * r3) / (r1 * r3 * r4)
    return {
        "metric": [1.0, 0.0, 0.0, r1 * r1],
        "mean_curvature_mu": [mu1, mu2],
        "norm_H_sq": [mu1 * mu1 + mu2 * mu2],
        "gauss_curvature": [0.0],
    }


def mironov_table(a: float, b: float, c: float) -> dict[str, list[float]]:
    """Values at (x, y) = (0, 0): u = bc there, so g = diag(c/(a+c), bc).

    The mean curvature pairings (<H, iF_x>, <H, iF_y>) are (0, a + b - c).
    """
    return {
        "metric": [c / (a + c), 0.0, 0.0, b * c],
        "mean_curvature_components": [0.0, a + b - c],
    }


def _calabi_params(rng: random.Random, lo1: float, hi1: float, lo3: float, hi3: float):
    r1, r3 = rng.uniform(lo1, hi1), rng.uniform(lo3, hi3)
    return r1, math.sqrt(1.0 - r1 * r1), r3, math.sqrt(1.0 - r3 * r3)


def _params_flag(names: str, values) -> str:
    return ",".join(f"{n}={v!r}" for n, v in zip(names, values))


def write_inputs(directory: Path) -> dict[str, str]:
    """Write the expression and config files; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "control": ("control.expr", CONTROL_EXPR),
        "torus": ("torus.expr", TORUS_EXPR),
        "tight": ("tight.cfg", TIGHT_CONFIG),
    }
    for filename, text in files.values():
        (directory / filename).write_text(text, encoding="utf-8")
    return {role: str(directory / filename) for role, (filename, _) in files.items()}


def build(workload: str, seed: int, files: dict[str, str]) -> list[Op]:
    """The operations of ``workload`` for ``seed``; ``files`` from write_inputs."""
    rng = random.Random(seed)
    run_seed = str(seed % 2**31)
    if workload == "catalog-16":
        return _catalog(rng, run_seed, files)
    if workload == "mironov-64":
        return _mironov64(run_seed)
    if workload == "quadrature":
        return _quadrature(rng, run_seed, files)
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")


def _catalog(rng: random.Random, run_seed: str, files: dict[str, str]) -> list[Op]:
    common = ("--grid", "16x16", "--workers", "1", "--seed", run_seed, "--format", "json")
    # Probed at 16x16: every residual stays below 5% of its tolerance at the
    # corners of these ranges, and |a + b - c| >= 0.25 keeps mironov non-minimal.
    calabi = _calabi_params(rng, 0.55, 0.9, 0.45, 0.9)
    while True:
        mironov = (rng.uniform(0.6, 2.2), rng.uniform(0.6, 2.2), rng.uniform(0.6, 1.8))
        if abs(mironov[0] + mironov[1] - mironov[2]) >= 0.25:
            break
    calabi_minimal = (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0), math.sqrt(0.5), math.sqrt(0.5))
    csl = Expect(csl_member=True)
    control = Expect(exit_code=1, failing=CONTROL_FAILING)

    def verify(name, *source, expect=csl):
        return Op(name, "verify_s", ("verify",) + source + common, 256, expect=expect)

    def classify(name, verdicts, *source):
        return Op(name, "classify_s", ("classify",) + source + common, 256,
                  expect=Expect(verdicts=verdicts))

    return [
        verify("verify calabi seeded", "--surface", "calabi",
               "--params", _params_flag(("r1", "r2", "r3", "r4"), calabi)),
        verify("verify calabi minimal", "--surface", "calabi",
               "--params", _params_flag(("r1", "r2", "r3", "r4"), calabi_minimal)),
        verify("verify mironov seeded", "--surface", "mironov",
               "--params", _params_flag(("a", "b", "c"), mironov)),
        verify("verify mironov minimal", "--surface", "mironov", "--params", "a=1,b=1,c=2"),
        verify("verify geodesic_sphere", "--surface", "geodesic_sphere"),
        verify("verify expression torus", "--expr-file", files["torus"]),
        verify("verify control", "--expr-file", files["control"], expect=control),
        verify("verify tightened tolerance", "--surface", "calabi", "--config", files["tight"],
               expect=Expect(exit_code=1, failing=None)),
        classify("classify mironov", MIRONOV_VERDICTS, "--surface", "mironov"),
        classify("classify control", CONTROL_VERDICTS, "--expr-file", files["control"]),
    ]


def _mironov64(run_seed: str) -> list[Op]:
    def verify(workers, metric, **expect):
        argv = ("verify", "--surface", "mironov", "--grid", "64x64", "--format", "json",
                "--workers", str(workers), "--seed", run_seed)
        return Op(f"verify mironov 64x64 workers {workers}", metric, argv, 4096,
                  workers=workers, expect=Expect(csl_member=True, **expect))

    # The short pooled call goes first: the call after the first pass is then
    # the short one, which fits in the time left more often than the long one.
    return [
        verify(2, "verify_s"),
        verify(1, "verify_serial_s", same_checks_as="verify mironov 64x64 workers 2"),
    ]


def _quadrature(rng: random.Random, run_seed: str, files: dict[str, str]) -> list[Op]:
    calabi = _calabi_params(rng, 0.4, 0.95, 0.4, 0.95)
    mironov = (1.0, 2.0, 1.0)
    common = ("--seed", run_seed, "--format", "json")
    energy_grid = ("--grid", "64x64")
    table_grid = ("--grid", "32x32")
    calabi_flag = ("--params", _params_flag(("r1", "r2", "r3", "r4"), calabi))
    points = 64 * 64 + 128 * 128
    return [
        Op("energy calabi seeded", "energy_s",
           ("energy", "--surface", "calabi") + calabi_flag + energy_grid + common, points,
           expect=Expect(energy=calabi_energy(*calabi))),
        Op("energy mironov", "energy_s",
           ("energy", "--surface", "mironov") + energy_grid + common, points),
        Op("energy expression torus", "energy_s",
           ("energy", "--expr-file", files["torus"]) + energy_grid + common, points,
           expect=Expect(energy=calabi_energy(*TORUS_PARAMS.values()))),
        Op("table calabi seeded", "table_s",
           ("table", "--surface", "calabi") + calabi_flag + table_grid + common, 1024,
           expect=Expect(table=calabi_table(*calabi))),
        Op("table mironov", "table_s",
           ("table", "--surface", "mironov", "--params", _params_flag(("a", "b", "c"), mironov))
           + table_grid + common, 1024,
           expect=Expect(table=mironov_table(*mironov))),
    ]
