"""Command-line driver: verify residuals, reproduce tables, report energy.

Subcommands
-----------
verify    grid residual checks plus the pointwise identity suite; exit 0 only
          if every check passes.
table     closed-form geometric quantities of the two torus families next to
          their numerically computed values, with grid-max deviations.
energy    area and Willmore energy per chart rectangle, with a grid-doubling
          stability check.
classify  labels the surface (Legendrian / minimal / csL / Willmore-Legendrian
          / csL-Willmore) from grid-max residuals against printed thresholds.

Settings come from an optional flat ``key = value`` file with ``[section]``
headers (see README); ``#`` starts a comment, and an unknown section, key or
surface parameter exits 2.  A flag is the top layer of its key: --grid writes
``[grid] nx, ny`` and --seed, --workers, --format their ``[run]`` keys, and
``build_config`` parses and bounds each setting once, whichever layer gave it.
The environment variable LEGLAB_TOLERANCE_SCALE multiplies every tolerance.
JSON output (--format json) is byte-deterministic for a fixed configuration.

Exit codes: 0 all checks pass, 1 a numeric check failed, 2 configuration,
usage or parse error (one ``error: ERR_<CODE>: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ambient
from .errors import LabError, UnsupportedSurfaceError, ValidationError
from .geometry import ChartFrame
from .operators import (
    BLOCK_POINTS, CHECKS, Check, checks_in, energy_doubling, grid_residuals, run_verification,
    sweep, willmore_energy,
)
from .surfaces import CATALOG, ImmersionSpec, from_expression, grid_points, surface_by_name


# -- run configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one subcommand invocation needs, flags and file merged.

    ``checks`` is the run's registry: ``CHECKS`` with every tolerance resolved
    to its ``[tolerances]`` override or default, times ``tolerance_scale``,
    which is kept only to be echoed in the report.
    """

    command: str
    spec: ImmersionSpec
    nx: int
    ny: int
    fmt: str
    seed: int
    workers: int
    tolerance_scale: float
    checks: tuple[Check, ...]


def _parse_flat_config(text: str, origin: str, headers=True) -> dict[str, dict[str, str]]:
    """Parse ``key = value`` lines under ``[section]`` headers; ``#`` starts a comment.

    A key repeated within a section is an error, not a silent last-one-wins,
    and so is any header when ``headers`` is false.
    """
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if not headers:
                raise ValidationError(f"{origin}:{lineno}: {line}: this file has no sections")
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValidationError(
                f"{origin}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in sections[current]:
            raise ValidationError(f"{origin}:{lineno}: {key}: repeated key")
        sections[current][key] = value.strip()
    return sections


def _number(convert, text: str, what: str, expected: str):
    """``convert(text)``, but ASCII digits only: no ``1_0``, no other script's digits."""
    try:
        if text.isascii() and "_" not in text:
            return convert(text)
    except ValueError:
        pass
    raise ValidationError(f"{what}: expected {expected}, got {text!r}")


def _parse_float(text: str, what: str) -> float:
    value = _number(float, text, what, "a number")
    if not math.isfinite(value):
        raise ValidationError(f"{what}: expected a finite number, got {text!r}")
    return value


def _parse_int(text: str, what: str, least: int) -> int:
    value = _number(int, text, what, "an integer")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return value


def _parse_params_string(text: str) -> dict[str, float]:
    """'a=1,b=2.5' -> {'a': 1.0, 'b': 2.5}; a repeated name is an error, not a
    silent last-one-wins."""
    out: dict[str, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValidationError(f"parameter {piece!r} is not of the form name=value")
        name, value = (part.strip() for part in piece.split("=", 1))
        if name in out:
            raise ValidationError(f"parameter {name} is given twice")
        out[name] = _parse_float(value, f"parameter {name}")
    return out


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(f"{what}: expected 'lo, hi', got {text!r}")
    return _parse_float(parts[0], what), _parse_float(parts[1], what)


def _parse_bool(text: str, what: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValidationError(f"{what}: expected true/false, got {text!r}")


def _expression_spec_from(flat: dict[str, str], origin: str, label: str) -> ImmersionSpec:
    """Build an expression surface from flat keys.

    Required: f1, f2, f3 (component expressions in x, y).  Optional: x_range /
    y_range ('lo, hi', default '0, 2*pi'), periodic ('bool, bool', default
    'true, true'), params ('name=value,...'), and any further 'name = number'
    lines, which also become expression parameters.
    """
    flat = dict(flat)
    missing = [k for k in ("f1", "f2", "f3") if k not in flat]
    if missing:
        raise ValidationError(f"{origin}: missing expression keys {', '.join(missing)}")
    sources = [flat.pop(k) for k in ("f1", "f2", "f3")]
    two_pi = 2.0 * math.pi
    x_range = _parse_pair(flat.pop("x_range", f"0, {two_pi!r}"), "x_range")
    y_range = _parse_pair(flat.pop("y_range", f"0, {two_pi!r}"), "y_range")
    periodic_text = [p.strip() for p in flat.pop("periodic", "true, true").split(",")]
    if len(periodic_text) != 2:
        raise ValidationError(f"{origin}: periodic must be 'bool, bool'")
    periodic = tuple(_parse_bool(t, f"periodic {axis}") for t, axis in zip(periodic_text, "xy"))
    params = _parse_params_string(flat.pop("params", ""))
    for k, v in flat.items():
        if k in params:
            raise ValidationError(f"parameter {k} is given twice")
        params[k] = _parse_float(v, f"parameter {k}")
    return from_expression(
        sources, params=params, chart_domain=(x_range, y_range), periodic=periodic, label=label
    )


#: Most points one command may sweep: nx ny times its ``_COMMANDS`` row's points
#: per node (energy's 4 count its doubled grid).  A larger grid is refused before
#: anything is allocated.
MAX_GRID_POINTS = 1 << 20

#: The sections of a --config file and the keys each may hold.  None leaves
#: the keys to the section's reader: [tolerances] keys are check names, and
#: an expression [surface] (``kind = expression``) holds its own keys.
_CONFIG_SECTIONS = {
    "surface": ("kind", "params"),
    "grid": ("nx", "ny"),
    "run": ("seed", "workers", "format"),
    "tolerances": None,
}


def _check_config_layout(file_cfg: dict[str, dict[str, str]], origin: str) -> None:
    """Reject a section or key that no command reads, naming it."""
    for section, body in file_cfg.items():
        if section and section not in _CONFIG_SECTIONS:
            expected = ", ".join(_CONFIG_SECTIONS)
            raise ValidationError(f"{origin}: unknown section [{section}] (expected {expected})")
        allowed = _CONFIG_SECTIONS.get(section, ())
        if section == "surface" and body.get("kind") == "expression":
            allowed = None
        for key in body:
            if allowed is not None and key not in allowed:
                if not section:
                    raise ValidationError(f"{origin}: {key}: key before the first [section]")
                raise ValidationError(
                    f"{origin}: [{section}] {key}: unknown key (expected {', '.join(allowed)})"
                )


def _settings(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """The config file's sections with each run flag written, as text, over its key."""
    sections: dict[str, dict[str, str]] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            sections = _parse_flat_config(fh.read(), args.config)
        _check_config_layout(sections, args.config)
    if args.grid is not None:
        sides = args.grid.lower().split("x")
        if len(sides) != 2:
            raise ValidationError(f"grid {args.grid!r} is not of the form NXxNY")
        sections["grid"] = dict(zip(_CONFIG_SECTIONS["grid"], sides))
    run = sections.setdefault("run", {})
    for key in _CONFIG_SECTIONS["run"]:
        if getattr(args, key) is not None:
            run[key] = getattr(args, key)
    return sections


def build_config(args: argparse.Namespace) -> RunConfig:
    """Read every setting from its top layer (flag, config file, default) into a RunConfig."""
    settings = _settings(args)
    surface_cfg = settings.get("surface", {})
    run_cfg = settings["run"]
    grid_cfg = settings.get("grid", {})
    tol_cfg = dict(settings.get("tolerances", {}))

    config_expression = surface_cfg.get("kind") == "expression"
    given = {
        "--surface": args.surface,
        "--expr-file": args.expr_file,
        f"[surface] kind = expression in {args.config}": config_expression,
    }
    named = [name for name, value in given.items() if value]
    if len(named) > 1:
        raise ValidationError(f"{' and '.join(named)} are mutually exclusive: give one surface")
    expression = args.expr_file or config_expression
    if expression and args.params:
        raise ValidationError(
            "--params does not apply to an expression surface: set its parameters in its definition"
        )
    if expression:
        if args.expr_file:
            with open(args.expr_file, encoding="utf-8") as fh:
                flat = _parse_flat_config(fh.read(), args.expr_file, headers=False)[""]
            origin, label = args.expr_file, os.path.basename(args.expr_file)
        else:
            flat = {k: v for k, v in surface_cfg.items() if k != "kind"}
            origin, label = args.config, "config"
        spec = _expression_spec_from(flat, origin, label=f"expression({label})")
    else:
        kind = args.surface or surface_cfg.get("kind", "calabi")
        params = _parse_params_string(surface_cfg.get("params", ""))
        if args.params:
            params.update(_parse_params_string(args.params))
        spec = surface_by_name(kind, params)

    _, _, (default_nx, default_ny), per_node = _COMMANDS[args.command]
    nx = _parse_int(grid_cfg.get("nx", str(default_nx)), "[grid] nx", 4)
    ny = _parse_int(grid_cfg.get("ny", str(default_ny)), "[grid] ny", 4)
    points = nx * ny * per_node
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid {nx}x{ny} sweeps {points} points, more than the limit of {MAX_GRID_POINTS}"
        )

    scale = _parse_float(tol_cfg.pop("scale", "1"), "[tolerances] scale")
    env_scale = os.environ.get("LEGLAB_TOLERANCE_SCALE")
    if env_scale is not None:
        scale *= _parse_float(env_scale, "LEGLAB_TOLERANCE_SCALE")
    if not 0.0 < scale < math.inf:
        raise ValidationError("tolerance scale must be positive and finite")
    # One config file serves every command, so any command's check name is
    # valid; keys are read lowercased, so match them lowercased.
    names = {row.name.lower(): row.name for row in CHECKS}
    overrides = {}
    for key, value in tol_cfg.items():
        if key not in names:
            raise ValidationError(f"[tolerances] {key}: no check has this name")
        overrides[names[key]] = _parse_float(value, f"[tolerances] {key}")
    for name, value in overrides.items():
        if not 0.0 < value * scale < math.inf:
            raise ValidationError(f"[tolerances] {name} must be positive and finite once scaled")
    checks = tuple(
        dataclasses.replace(row, tolerance=overrides.get(row.name, row.tolerance) * scale)
        for row in CHECKS
    )

    seed = _parse_int(run_cfg.get("seed", "0"), "[run] seed", 0)
    workers = _parse_int(run_cfg.get("workers", "1"), "[run] workers", 1)
    fmt = run_cfg.get("format", "text")
    if fmt not in ("text", "json"):
        raise ValidationError(f"[run] format: expected text or json, got {fmt!r}")
    return RunConfig(
        command=args.command, spec=spec, nx=nx, ny=ny, fmt=fmt, seed=seed, workers=workers,
        tolerance_scale=scale, checks=checks,
    )


# -- report rendering ----------------------------------------------------------


def _check_rows(checks, words=None) -> list[dict]:
    """JSON rows of check results; ``words`` renames statuses (classify's yes/no)."""
    words = words or {}
    return [
        {
            "name": c.name,
            "paper_ref": c.description,
            "value": float(c.max_residual),
            "tolerance": float(c.tolerance),
            "status": words.get(c.status, c.status),
        }
        for c in checks
    ]


def _aggregates(checks) -> dict:
    n_failed = sum(not c.passed for c in checks)
    return {
        "all_pass": n_failed == 0,
        "n_checks": len(checks),
        "n_failed": n_failed,
        "n_skipped": sum(c.status == "SKIP" for c in checks),
    }


def _base_payload(config: RunConfig) -> dict:
    return {
        "schema_version": 1,
        "command": config.command,
        "surface": config.spec.kind,
        "label": config.spec.label,
        "params": {k: float(v) for k, v in config.spec.params.items()},
        "grid": [config.nx, config.ny],
        "seed": config.seed,
        "workers": config.workers,
        "tolerance_scale": config.tolerance_scale,
    }


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_header(config: RunConfig) -> None:
    print(f"legendrian-lab {config.command} -- {config.spec.label}")
    print(
        f"grid {config.nx}x{config.ny}, seed {config.seed}, "
        f"workers {config.workers}, tolerance scale {config.tolerance_scale:g}"
    )


def _print_checks(checks) -> None:
    for c in checks:
        skipped = f" (skipped {c.n_skipped}/{c.n_points})" if c.n_skipped else ""
        print(
            f"[{c.status:^4}] {c.name:<28} value={c.max_residual:12.5e} "
            f"tol={c.tolerance:8.1e}{skipped}  {c.description}"
        )


def _finish(checks, config: RunConfig, payload: dict) -> int:
    agg = _aggregates(checks)
    if config.fmt == "json":
        payload["checks"] = _check_rows(checks)
        payload["aggregates"] = agg
        _print_json(payload)
    else:
        _print_checks(checks)
        verdict = "PASS" if agg["all_pass"] else "FAIL"
        print(
            f"result: {verdict} ({agg['n_checks']} checks, "
            f"{agg['n_failed']} failed, {agg['n_skipped']} skipped)"
        )
    return 0 if agg["all_pass"] else 1


# -- subcommands ---------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    report = run_verification(
        config.spec,
        nx=config.nx,
        ny=config.ny,
        seed=config.seed,
        workers=config.workers,
        registry=config.checks,
    )
    payload = _base_payload(config)
    payload["descriptor"] = report.descriptor
    if config.fmt == "text":
        _print_header(config)
        print(report.descriptor)
    return _finish(report.checks, config, payload)


def _pair(closed, computed) -> np.ndarray:
    """Closed form and computed values stacked, the closed form broadcast to the batch."""
    return np.stack(np.broadcast_arrays(closed, computed))


def _calabi_table(fr: ChartFrame) -> dict[str, np.ndarray]:
    p = fr.spec.params
    r1, r2, r3, r4 = p["r1"], p["r2"], p["r3"], p["r4"]
    mu1 = (2.0 * r2 * r2 - r1 * r1) / (r1 * r2)
    mu2 = (r4 * r4 - r3 * r3) / (r1 * r3 * r4)
    # The closed forms are constant: one batch column broadcasts over the block.
    return {
        "metric": _pair(np.array([[1.0, 0.0], [0.0, r1 * r1]])[..., None], fr.g),
        "shape_operator_nu1": _pair(
            np.array([[(r2 * r2 - r1 * r1) / (r1 * r2), 0.0], [0.0, r2 / r1]])[..., None],
            fr.sigma_frame[:, :, 0],
        ),
        "shape_operator_nu2": _pair(
            np.array([[0.0, r2 / r1], [r2 / r1, mu2]])[..., None], fr.sigma_frame[:, :, 1]
        ),
        "mean_curvature_mu": _pair(np.array([mu1, mu2])[..., None], fr.mu),
        "norm_H_sq": _pair(np.array([[mu1**2 + mu2**2]]), fr.norm_H_sq[None]),
        "gauss_curvature": _pair(np.zeros((1, 1)), fr.kappa[None]),
    }


def _mironov_closed(params: dict[str, float], xs: np.ndarray) -> dict[str, np.ndarray]:
    a, b, c = params["a"], params["b"], params["c"]
    m1, m2 = c / (a + c), c / (b + c)
    D = (a + c) * (b + c)
    sin, cos = np.sin(xs), np.cos(xs)
    phi, psi = np.sqrt(m1) * sin, np.sqrt(m2) * cos
    dphi, dpsi = np.sqrt(m1) * cos, -np.sqrt(m2) * sin
    u = 0.5 * c * (a + b + (b - a) * np.cos(2.0 * xs))
    du = -c * (b - a) * np.sin(2.0 * xs)
    zeta_sq = (a * b + u) / D
    zeta = np.sqrt(zeta_sq)
    dzeta = du / (2.0 * np.sqrt(D * (a * b + u)))
    w = a * dphi**2 + b * dpsi**2 - c * dzeta**2
    return {
        "g11": u / (a * b + u),
        "g22": u,
        "w": w,
        "a22": a**3 * phi**2 + b**3 * psi**2 - c**3 * zeta**2,
        "h2": np.full_like(u, a + b - c),
    }


def _mironov_table(fr: ChartFrame) -> dict[str, np.ndarray]:
    closed = _mironov_closed(fr.spec.params, fr.xs)
    g11, g22, w, a22 = (closed[key] for key in ("g11", "g22", "w", "a22"))
    zeros = np.zeros_like(fr.xs)
    iFx, iFy = ambient.apply_J(fr.Fx_v), ambient.apply_J(fr.Fy_v)
    return {
        "metric": _pair(np.array([[g11, zeros], [zeros, g22]]), fr.g),
        "shape_operator_iFx": _pair(np.array([[zeros, w], [w, zeros]]), fr.form(iFx)),
        "shape_operator_iFy": _pair(np.array([[w, zeros], [zeros, a22]]), fr.form(iFy)),
        "mean_curvature_components": _pair(
            np.stack([zeros, closed["h2"]]),
            np.stack([ambient.real_inner(fr.H, iFx), ambient.real_inner(fr.H, iFy)]),
        ),
    }


def cmd_table(config: RunConfig) -> int:
    spec = config.spec
    if spec.kind not in ("calabi", "mironov"):
        raise UnsupportedSurfaceError(
            f"table requires a calabi or mironov surface, got {spec.kind!r}"
        )
    xs, ys = grid_points(spec, config.nx, config.ny)
    if spec.kind == "calabi":
        read, rep = _calabi_table, "representative point: first grid node"
    else:
        # x = 0 is the representative point the closed forms are usually quoted at.
        xs, ys = np.concatenate([[0.0], xs]), np.concatenate([[0.0], ys])
        read, rep = _mironov_table, "representative point: (x, y) = (0, 0)"
    pairs = sweep(spec, xs, ys, 2, read)
    # Each row's values at point 0; the check of its name judges |computed - closed|.
    rows = [
        {"name": name, "closed_form": closed[..., 0].tolist(),
         "computed": computed[..., 0].tolist()}
        for name, (closed, computed) in pairs.items()
    ]
    deviations = {name: np.abs(computed - closed) for name, (closed, computed) in pairs.items()}
    table_checks = {check.name: check for check in checks_in("table", config.checks)}
    checks = [table_checks[name].evaluate(deviations) for name in pairs]
    payload = _base_payload(config)
    payload["table"] = rows
    if config.fmt == "text":
        _print_header(config)
        print(rep)
        for row, check in zip(rows, checks):
            print(f"  {row['name']}:")
            print(f"    closed form: {row['closed_form']}")
            print(f"    computed:    {row['computed']}")
            print(f"    grid-max deviation: {check.max_residual:.5e}")
    return _finish(checks, config, payload)


def cmd_energy(config: RunConfig) -> int:
    spec, grid = config.spec, (config.nx, config.ny)
    if all(spec.periodic):
        # Nested trapezoid grids: one sweep of the doubled grid gives both.
        (area, energy), (area2, energy2) = energy_doubling(spec, grid)
    else:
        area, energy = willmore_energy(spec, grid)
        area2, energy2 = willmore_energy(spec, (2 * config.nx, 2 * config.ny))
    drift = {"quadrature_doubling": energy2 - energy}
    checks = [check.evaluate(drift) for check in checks_in("energy", config.checks)]
    payload = _base_payload(config)
    payload["quantities"] = {
        "area": area,
        "energy": energy,
        "area_refined": area2,
        "energy_refined": energy2,
    }
    if config.fmt == "text":
        _print_header(config)
        print(f"area   = {area!r}")
        print(f"energy = {energy!r}")
        print(f"refined ({2 * config.nx}x{2 * config.ny}): area = {area2!r}, energy = {energy2!r}")
    return _finish(checks, config, payload)


def cmd_classify(config: RunConfig) -> int:
    maps = grid_residuals(config.spec, config.nx, config.ny, workers=config.workers)
    checks = [check.evaluate(maps) for check in checks_in("classify", config.checks)]
    labels = _check_rows(checks, words={"PASS": "yes", "FAIL": "no"})
    payload = _base_payload(config)
    payload["checks"] = labels
    payload["aggregates"] = {
        "verdicts": {row["name"]: row["status"] for row in labels}
    }
    if config.fmt == "json":
        _print_json(payload)
    else:
        _print_header(config)
        for row in labels:
            print(
                f"  {row['name']:<22} {row['status']:<3} "
                f"({row['paper_ref']} = {row['value']:.5e}, threshold {row['tolerance']:.1e})"
            )
    return 0


# -- entry point ---------------------------------------------------------------


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--surface", help=f"catalog family: {', '.join(CATALOG)}")
    parser.add_argument("--params", help="comma-separated name=value parameter overrides")
    parser.add_argument("--expr-file", help="flat definition file for an expression surface")
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--grid", help="evaluation grid as NXxNY (e.g. 32x32)")
    parser.add_argument("--format", metavar="{text,json}", help="report format")
    parser.add_argument("--seed", help="seed for the sample-point generator")
    parser.add_argument(
        "--workers",
        help="processes for verify and classify grid sweeps, at most one per full block of "
        f"{BLOCK_POINTS} grid points (energy and table always run in-process)",
    )


#: glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD.
_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -3, -1


def _glibc() -> bool:
    """Whether this process runs on glibc."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    Each block of a grid sweep frees several MB at the top of the heap.  With
    glibc's dynamic thresholds that memory is trimmed or unmapped, and the
    next block faults it back in: a repeated 64x64 mironov ``energy`` made
    5,300 minor page faults per call, 5 to 16 with the thresholds pinned.
    The CLI owns its process, so it is the one place that sets them; library
    calls leave the allocator alone.  Other C libraries are left as they are.
    """
    if _glibc():
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


#: The subcommands: name -> (function, help line, default grid, points swept
#: per grid node).
_COMMANDS = {
    "verify": (cmd_verify, "run residual and identity checks; exit 0 iff all pass", (16, 16), 1),
    "table": (cmd_table, "closed-form vs computed geometric quantities", (32, 32), 1),
    "energy": (cmd_energy, "area and Willmore energy with a grid-doubling check", (64, 64), 4),
    "classify": (cmd_classify, "label the surface by its grid-max residuals", (16, 16), 1),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is ERR_VALIDATION, like every other bad setting."""
        raise ValidationError(message)


def main(argv=None) -> int:
    _pin_heap_thresholds()
    parser = _ArgumentParser(
        prog="legendrian-lab",
        description="Verification toolkit for Legendrian surfaces in the unit 5-sphere.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _, _) in _COMMANDS.items():
        _add_common_arguments(subparsers.add_parser(name, help=text))
    try:
        args = parser.parse_args(argv)
        config = build_config(args)
        return _COMMANDS[args.command][0](config)
    except (LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
