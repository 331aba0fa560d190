"""Output checks for the benchmark's operations, independent of cli.py's table code.

``Oracle.check`` takes one operation's exit code and stdout and returns the
problems it finds (an empty list means the output is correct) plus the errors
that feed ``accuracy_digits``.  It keeps the first stdout of every operation,
so that a repeat which is not byte-identical counts as a failure.
"""

from __future__ import annotations

import json
import math

from workloads import Op

#: Error floor for accuracy_digits.  Errors below it are roundoff, whose
#: size changes with the seeded parameters, so they all read as 14 digits.
ERROR_FLOOR = 1e-14

#: Relative agreement required of the Willmore energy with its closed form.
ENERGY_RTOL = 1e-9

#: Absolute agreement required of a table value with its closed form.
TABLE_ATOL = 1e-10


def _flatten(value) -> list[float]:
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def digits(error: float) -> float:
    """-log10 of an error, floored at ERROR_FLOOR."""
    return -math.log10(max(abs(error), ERROR_FLOOR))


class Oracle:
    """Checks outputs and remembers the first output of every operation."""

    def __init__(self) -> None:
        self.first_output: dict[str, str] = {}
        self.checks: dict[str, list] = {}

    def check(self, op: Op, exit_code: int, stdout: str) -> tuple[list[str], list[float]]:
        """(problems, errors) for one run of ``op``."""
        expect = op.expect
        problems: list[str] = []
        errors: list[float] = []
        if exit_code != expect.exit_code:
            problems.append(f"exit code {exit_code}, expected {expect.exit_code}")
        first = self.first_output.setdefault(op.name, stdout)
        if stdout != first:
            problems.append("output differs from the first run of the same operation")
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"output is not JSON: {exc}"], errors
        checks = payload.get("checks", [])
        self.checks.setdefault(op.name, checks)
        if expect.verdicts is None:
            all_pass = payload.get("aggregates", {}).get("all_pass")
            if all_pass is not (expect.exit_code == 0):
                problems.append(f"all_pass is {all_pass!r}, expected {expect.exit_code == 0}")
            failing = {c["name"] for c in checks if c["status"] == "FAIL"}
            if expect.failing is None:
                if not failing:
                    problems.append("no check failed, expected at least one")
            elif failing != expect.failing:
                problems.append(
                    f"failing checks {sorted(failing)}, expected {sorted(expect.failing)}"
                )
        else:
            verdicts = payload.get("aggregates", {}).get("verdicts", {})
            for name, verdict in expect.verdicts.items():
                if verdicts.get(name) != verdict:
                    problems.append(f"classify {name} = {verdicts.get(name)!r}, expected {verdict!r}")
        if expect.csl_member:
            values = [c["value"] for c in checks if c["name"] == "csl_willmore_residual"]
            if len(values) != 1:
                problems.append("no csl_willmore_residual check in the output")
            errors.extend(values)
        if expect.energy is not None:
            energy = payload.get("quantities", {}).get("energy", math.nan)
            rel = abs(energy - expect.energy) / abs(expect.energy)
            if not rel <= ENERGY_RTOL:
                problems.append(f"energy {energy!r} vs closed form {expect.energy!r}: rel {rel:.3e}")
            errors.append(rel)
        if expect.table is not None:
            rows = {row["name"]: _flatten(row["computed"]) for row in payload.get("table", [])}
            for name, closed in expect.table.items():
                computed = rows.get(name)
                if computed is None or len(computed) != len(closed):
                    problems.append(f"table row {name} missing or of the wrong shape")
                    continue
                dev = max(abs(a - b) for a, b in zip(computed, closed))
                if not dev <= TABLE_ATOL:
                    problems.append(f"table row {name} deviates from its closed form by {dev:.3e}")
                errors.append(dev)
        twin = expect.same_checks_as
        if twin is not None and twin in self.checks and self.checks[twin] != checks:
            problems.append(f"checks differ from those of {twin!r}")
        return problems, errors
