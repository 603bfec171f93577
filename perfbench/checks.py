"""Output checks for one operation.

Every operation is checked for its exit code, its row count and finite
values, and for the invariants each scheme guarantees, at the tolerances of
the program's acceptance tests:

* Lie-Poisson Casimirs: |Pi|^2 to 1e-9 (relative to max(1, |Pi0|^2)) on the
  rigid body and the quadrotor; Pi.Gamma to 1e-9 and |Gamma|^2 to 1e-10 on
  the heavy top;
* the orthogonality defect ||R^T R - I||_F of every attitude, at most 1e-9;
* quadrotor hover exactness: position and momentum within 1e-10 of the start;
* Stormer-Verlet angular momentum on the Kepler orbit, within 1e-12.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

LIE_POISSON = ("lp_exp", "lp_cayley", "lp_exp_right")
CASIMIR_TOL = 1e-9
PI_GAMMA_TOL = 1e-9
GAMMA_NORM_TOL = 1e-10
ORTHO_TOL = 1e-9
HOVER_TOL = 1e-10
ANGMOM_TOL = 1e-12


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _ortho_defect(r) -> float:
    """||R^T R - I||_F for the row-major entries r[0..8]."""
    total = 0.0
    for i in range(3):
        for j in range(i, 3):
            g = r[i] * r[j] + r[3 + i] * r[3 + j] + r[6 + i] * r[6 + j]
            if i == j:
                g -= 1.0
                total += g * g
            else:
                total += 2.0 * g * g
    return math.sqrt(total)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_run_csv(op, text: str) -> list[str]:
    """Problems with the CSV one ``geomint run`` operation wrote."""
    spec = op.spec
    header, rows = parse_csv(text)
    if header[:2] != ["step", "t"]:
        return [f"unexpected CSV header {header[:3]}"]
    if len(rows) != spec.steps:
        return [f"{len(rows)} rows, expected {spec.steps}"]
    problems = []
    width = len(header)
    for k, row in enumerate(rows, start=1):
        if len(row) != width or row[0] != k:
            problems.append(f"malformed row {k}")
            break
        if not all(math.isfinite(x) for x in row):
            problems.append(f"non-finite value at step {k}")
            break
    if problems:
        return problems
    col = {name: i for i, name in enumerate(header)}
    integrator = spec.integrators[0]

    def worst(fn) -> float:
        return max(fn(row) for row in rows)

    if "R11" in col:
        base = col["R11"]
        defect = worst(lambda row: _ortho_defect(row[base : base + 9]))
        if defect > ORTHO_TOL:
            problems.append(f"orthogonality defect {defect:.3e} > {ORTHO_TOL:g}")
    if spec.scenario in ("rigidbody", "quadrotor_hover") and integrator in LIE_POISSON:
        pi0 = op.initial("Pi0")
        c0 = _dot(pi0, pi0)
        dev = worst(lambda row: abs(row[col["casimir"]] - c0))
        if dev > CASIMIR_TOL * max(1.0, c0):
            problems.append(f"|Pi|^2 deviation {dev:.3e}")
    if spec.scenario == "heavytop" and integrator in LIE_POISSON:
        pi0, gamma0 = op.initial("Pi0"), op.initial("Gamma0")
        pg0, g0 = _dot(pi0, gamma0), _dot(gamma0, gamma0)
        dev = worst(lambda row: abs(row[col["pi_gamma"]] - pg0))
        if dev > PI_GAMMA_TOL * max(1.0, abs(pg0)):
            problems.append(f"Pi.Gamma deviation {dev:.3e}")
        dev = worst(lambda row: abs(row[col["gamma_norm2"]] - g0))
        if dev > GAMMA_NORM_TOL:
            problems.append(f"|Gamma|^2 deviation {dev:.3e}")
    if spec.scenario == "quadrotor_hover":
        q0, p0 = op.initial("q0"), op.initial("p0")
        dev = worst(
            lambda row: max(
                max(abs(row[col[f"q{i + 1}"]] - q0[i]) for i in range(3)),
                max(abs(row[col[f"p{i + 1}"]] - p0[i]) for i in range(3)),
            )
        )
        if dev > HOVER_TOL:
            problems.append(f"hover deviation {dev:.3e} > {HOVER_TOL:g}")
    if spec.scenario == "kepler" and integrator == "stormer_verlet":
        rx, ry, vx, vy = op.initial("x0")
        l0 = rx * vy - ry * vx
        dev = worst(lambda row: abs(row[col["angmom"]] - l0))
        if dev > ANGMOM_TOL:
            problems.append(f"angular momentum deviation {dev:.3e} > {ANGMOM_TOL:g}")
    return problems


def parse_compare_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a ``geomint compare`` table (columns split on 2+ spaces)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        return [], []

    def split(line: str) -> list[str]:
        return [cell for cell in line.strip().split("  ") if cell.strip()]

    header = [cell.strip() for cell in split(lines[0])]
    return header, [[cell.strip() for cell in split(line)] for line in lines[2:]]


def check_compare_table(op, text: str) -> list[str]:
    """Problems with the table one compare operation printed."""
    spec = op.spec
    header, rows = parse_compare_table(text)
    if not header or header[0] != "integrator":
        return ["no comparison table in the output"]
    names = [row[0] for row in rows]
    if names != list(spec.integrators):
        return [f"table rows {names}, expected {list(spec.integrators)}"]
    problems = []
    for row in rows:
        if len(row) != len(header):
            problems.append(f"malformed row for {row[0]}")
            continue
        values = dict(zip(header[1:], (float(cell) for cell in row[1:])))
        name = row[0]
        bad = [key for key, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{name}: non-finite {bad}")
            continue
        if values["max orthodefect"] > ORTHO_TOL:
            problems.append(f"{name}: orthogonality defect {values['max orthodefect']:.3e}")
        if name not in LIE_POISSON:
            continue
        if spec.scenario == "rigidbody":
            pi0 = op.initial("Pi0")
            if values["max|d casimir|"] > CASIMIR_TOL * max(1.0, _dot(pi0, pi0)):
                problems.append(f"{name}: |Pi|^2 deviation {values['max|d casimir|']:.3e}")
        elif spec.scenario == "heavytop":
            pg0 = _dot(op.initial("Pi0"), op.initial("Gamma0"))
            if values["max|d pi_gamma|"] > PI_GAMMA_TOL * max(1.0, abs(pg0)):
                problems.append(f"{name}: Pi.Gamma deviation {values['max|d pi_gamma|']:.3e}")
            if values["max|d gamma_norm2|"] > GAMMA_NORM_TOL:
                problems.append(f"{name}: |Gamma|^2 deviation {values['max|d gamma_norm2|']:.3e}")
    return problems
