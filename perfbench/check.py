"""Output checks for the tables the benchmark's workloads emit.

A table is checked row by row; its metadata counts as one more row.  At the
default seed each cell is compared with a reference table recorded at the
commit that introduced the benchmark; at any other seed the table must
satisfy invariants of the model instead.  Both return (attempted, failed)
row counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

LOSS_REL_TOL = 1e-7
GOF_REL_TOL = 1e-5
GOF_KEYS = ("gof_statistic", "gof_p_value")
# metadata that names the tool or echoes the input, not a result
META_IGNORED = ("tool", "config", "config_sha256")
# criterion 2: bound ordering slack on linear losses
BOUND_SLACK = 2e-9
# criterion 7: exact and closed-form mean losses agree within this many dB
KERNEL_GAP_DB = 0.5


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_config(text: str) -> dict:
    return dict(line.split(" = ", 1) for line in text.splitlines() if line)


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _cell_matches(got, want, rel_tol: float) -> bool:
    if isinstance(want, (int, str)):
        return type(got) is type(want) and got == want
    if not isinstance(got, float):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rel_tol * max(abs(got), abs(want)) or got == want


def compare_to_reference(table: dict, ref: dict) -> tuple[int, int]:
    """Cell-by-cell comparison; loss-valued floats to LOSS_REL_TOL, the GOF
    statistic and p-value to GOF_REL_TOL, integer and text cells exactly."""
    attempted = len(ref["rows"]) + 1
    if table.get("columns") != ref["columns"] or len(table.get("rows", ())) != len(ref["rows"]):
        return attempted, attempted
    failed = 0
    for got, want in zip(table["rows"], ref["rows"]):
        if len(got) != len(want) or not all(
                _cell_matches(g, w, LOSS_REL_TOL) for g, w in zip(got, want)):
            failed += 1
    meta = table.get("meta", {})
    for key, want in ref["meta"].items():
        if key in META_IGNORED:
            continue
        tol = GOF_REL_TOL if key in GOF_KEYS else LOSS_REL_TOL
        if key not in meta or not _cell_matches(meta[key], want, tol):
            failed += 1
            break
    return attempted, failed


def _lin(db: float) -> float:
    return 10.0 ** (-db / 10.0)


def _check_average_loss(table: dict, cfg: dict) -> tuple[int, int, bool]:
    sigmas = [float(s) for s in cfg["sweep.values"].split(",")]
    rows = table["rows"]
    failed = 0
    for row, sigma in zip(rows, sigmas):
        (s, _unit, _dist, db_ex, db_apx, lin_ex, lin_apx, std_ex, degenerate) = row
        ok = (s == sigma and degenerate == 0
              and _finite(db_ex, db_apx, lin_ex, lin_apx, std_ex)
              and 0.0 < lin_ex <= 1.0 and 0.0 < lin_apx <= 1.0 and 0.0 <= std_ex <= 0.5
              and abs(db_ex - db_apx) <= KERNEL_GAP_DB)
        failed += not ok
    return len(sigmas), failed + abs(len(rows) - len(sigmas)), True


def _check_pdf(table: dict, cfg: dict) -> tuple[int, int, bool]:
    rows, meta = table["rows"], table["meta"]
    failed = 0
    for i, (lo, hi, count, dens_emp, dens_model) in enumerate(rows):
        ok = (_finite(lo, hi, dens_emp, dens_model) and isinstance(count, int)
              and 0.0 <= lo < hi <= 1.0 and count >= 0
              and dens_emp >= 0.0 and dens_model >= 0.0
              and (i == 0 or lo == rows[i - 1][1]))
        failed += not ok
    # every sample is finite and in [0, 1]: the histogram spans the sample
    # range, so all of them fall inside its edges
    counts_ok = (sum(r[2] for r in rows) == int(cfg["mc.n_trials"])
                 and meta.get("underflow") == 0 and meta.get("overflow") == 0)
    # closed-form mean from the model density over the bins, against the
    # exact-kernel mean
    mass = sum(r[4] * (r[1] - r[0]) for r in rows)
    model_mean = sum(0.5 * (r[0] + r[1]) * r[4] * (r[1] - r[0]) for r in rows) / mass
    # float(): the CLI writes non-finite floats as strings
    mean_db = float(meta.get("mean_db", "nan"))
    meta_ok = (counts_ok and meta.get("degenerate_trials") == 0 and _finite(mean_db)
               and abs(mean_db + 10.0 * math.log10(model_mean)) <= KERNEL_GAP_DB
               and 0.0 <= float(meta.get("gof_p_value", "nan")) <= 1.0)
    return len(rows), failed, meta_ok


def _check_bounds(table: dict, cfg: dict) -> tuple[int, int, bool]:
    alphas = [float(a) for a in cfg["sweep.values"].split(",")]
    offsets = [tuple(float(c) for c in p.split(":")) for p in cfg["bounds.offsets_m"].split(";")]
    grid = [(a, fy, fz) for a in alphas for fy, fz in offsets]
    rows = table["rows"]
    failed = 0
    for row, (alpha, fy, fz) in zip(rows, grid):
        a, y, z, ex, low, upp, alow, aupp, amean = row
        ok = ((a, y, z) == (alpha, fy, fz) and _finite(ex, low, upp, alow, aupp, amean)
              and min(ex, low, upp, alow, aupp, amean) >= 0.0)
        if ok:
            lin_ex, lin_low, lin_upp = _lin(ex), _lin(low), _lin(upp)
            ok = lin_low <= lin_ex + BOUND_SLACK and lin_ex <= lin_upp + BOUND_SLACK
        failed += not ok
    return len(grid), failed + abs(len(rows) - len(grid)), True


_INVARIANTS = {
    "average-loss": _check_average_loss,
    "pdf": _check_pdf,
    "bounds": _check_bounds,
}


def check_invariants(command: str, table: dict, config_text: str) -> tuple[int, int]:
    """Model invariants for a table at a seed without a reference."""
    cfg = parse_config(config_text)
    try:
        n_rows, failed, meta_ok = _INVARIANTS[command](table, cfg)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        n_rows = max(len(table.get("rows", ())), 1)
        return n_rows + 1, n_rows + 1
    meta_ok = (meta_ok and table["meta"].get("command") == command
               and table["meta"].get("seed") == int(cfg["mc.seed"]))
    return n_rows + 1, failed + (not meta_ok)
