"""Reference gate: an operation's outputs against the outputs recorded in
refs.json, within the integrator tolerance.

Run identifiers (n, J, tau, w, K, L, T) must match to rounding.  Every
propagated quantity (distances, Phi, slacks) may move by at most
``TOL_FACTOR * run.tolerance``, which admits any integrator that meets the
configured tolerance and rejects a perturbation of 1e-6 at tol = 1e-8.
A verdict must match its reference unless the reference slack is itself
within that allowance of zero.
"""

from __future__ import annotations

TOL_FACTOR = 10
META_COLUMNS = ("n", "J", "tau", "w", "K", "L", "T")
META_RTOL = 1e-12
# The spectral quantities do not depend on the integrator; their allowances
# follow from eigvalsh roundoff and from the golden-section xtol of 1e-8,
# which pins s* only to about sqrt(machine epsilon).
GAP_ATOL = 1e-9
S_STAR_ATOL = 1e-7
GAP_SUM_ATOL = 1e-8


def check(kind: str, got: dict, ref: dict, tolerance: float) -> list[str]:
    """Mismatches between ``got`` and ``ref``; an empty list means correct."""
    if kind == "simulate":
        return _check_report(got, ref, TOL_FACTOR * tolerance)
    if kind == "sweep":
        return _check_sweep(got, ref, TOL_FACTOR * tolerance)
    if kind == "gap":
        return _check_gap(got, ref)
    raise ValueError(f"unknown workload kind {kind!r}")


def _close(label: str, got, ref, atol: float, rtol: float = 0.0) -> list[str]:
    if got is None or ref is None:
        return [] if got is None and ref is None else [f"{label}: got {got!r}, reference {ref!r}"]
    allowance = atol + rtol * abs(ref)
    if abs(got - ref) <= allowance:  # False for NaN
        return []
    return [f"{label}: got {got!r}, reference {ref!r} (allowance {allowance:.3g})"]


def _check_values(label: str, got: dict, ref: dict, atol: float) -> list[str]:
    if set(got) != set(ref):
        return [f"{label}: columns {sorted(got)} differ from reference {sorted(ref)}"]
    out = []
    for col, ref_value in ref.items():
        if col in META_COLUMNS:
            out += _close(f"{label}.{col}", got[col], ref_value, 0.0, META_RTOL)
        else:
            out += _close(f"{label}.{col}", got[col], ref_value, atol)
    return out


def _slack(values: dict, verdict: str) -> float:
    if verdict == "monotonic":
        return values["d_tot"] - values["delta_S"]
    if verdict == "triangle":
        return values["d_D"] + values["delta_ad"] - values["d_tot"]
    return values[f"slack_{verdict}"]


def _check_report(got: dict, ref: dict, atol: float) -> list[str]:
    out = _check_values("report", got["values"], ref["values"], atol)
    if set(got["verdicts"]) != set(ref["verdicts"]):
        out.append(f"verdicts {sorted(got['verdicts'])} differ from {sorted(ref['verdicts'])}")
        return out
    for name, ref_ok in ref["verdicts"].items():
        if got["verdicts"][name] != ref_ok and abs(_slack(ref["values"], name)) > atol:
            out.append(f"verdict {name}: got {got['verdicts'][name]}, reference {ref_ok}")
    expected_exit = 0 if all(got["verdicts"].values()) else 2
    if got["exit_code"] != expected_exit:
        out.append(f"exit code {got['exit_code']} does not match verdicts (expected {expected_exit})")
    return out


def _check_sweep(got: dict, ref: dict, atol: float) -> list[str]:
    statuses = [row["status"] for row in got["rows"]]
    if statuses != got["returned_statuses"]:
        return [f"CSV statuses {statuses} differ from returned {got['returned_statuses']}"]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{len(got['rows'])} sweep rows, reference has {len(ref['rows'])}"]
    out = []
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        if row["status"] != ref_row["status"]:
            out.append(f"row {i}: status {row['status']!r}, reference {ref_row['status']!r}")
        else:
            out += _check_values(f"row {i}", row["values"], ref_row["values"], atol)
    return out


def _check_gap(got: dict, ref: dict) -> list[str]:
    out = []
    for key in ("grid_points", "levels", "grid_argmin"):
        if got[key] != ref[key]:
            out.append(f"{key}: got {got[key]}, reference {ref[key]}")
    out += _close("gap", got["gap"], ref["gap"], GAP_ATOL)
    out += _close("grid_min_gap", got["grid_min_gap"], ref["grid_min_gap"], GAP_ATOL)
    out += _close("s_star", got["s_star"], ref["s_star"], S_STAR_ATOL)
    out += _close("gap_sum", got["gap_sum"], ref["gap_sum"], GAP_SUM_ATOL)
    out += _close("e0_sum", got["e0_sum"], ref["e0_sum"], GAP_SUM_ATOL)
    return out
