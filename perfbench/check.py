"""Output checks: a CSV written by `lifisim` against its reference.

The tolerances were fixed before any optimisation, per column:

* inputs (realization, position, angles, `n_blockers`, sweep points,
  scheme labels) and `feasible` match exactly;
* `gamma_rx_db` within 0.01 dB, the search tolerance of `required_snr`.
  `n_active` and `pam_order` are not compared: a row within that 0.01 dB
  passes whichever adaptive choice reached it, and one outside has failed;
* analytic columns (union bound, rate bounds, efficiencies, uplink
  averages) within a relative 1e-9;
* Monte Carlo BER inside the reference row's Wilson interval;
* Monte Carlo mutual information within 3 reference standard errors.

Columns a rule does not name (the interval and standard-error columns of
Monte Carlo estimates) are not compared.
"""

import csv
import gzip
import math

_CDF = {"realization": "exact", "x": "exact", "y": "exact",
        "omega_deg": "exact", "alpha_deg": "exact", "beta_deg": "exact",
        "gamma_deg": "exact", "n_blockers": "exact", "feasible": "exact",
        "gamma_rx_db": "snr"}

#: Rules per output file name.
RULES = {
    "cdf_map.csv": _CDF,
    "orwp_run.csv": _CDF,
    "ber_sweep.csv": {"snr_db": "exact", "ber_bound": "rel",
                      "ber_mc": "wilson", "scheme": "exact",
                      "N_a": "exact", "M": "exact"},
    "uplink_ber.csv": {"snr_db": "rel", "ber_bound": "rel", "ber_mc": "exact",
                       "scheme": "exact", "N_a": "rel", "M": "exact"},
    "uplink_ee.csv": {"scheme": "exact", "config": "exact", "eta_rse": "rel",
                      "eta_ee": "rel", "L1": "rel", "L2": "rel",
                      "mi_mc": "mi"},
}

SNR_TOL_DB = 0.01
REL_TOL = 1e-9
MI_SIGMAS = 3.0


def read_table(path):
    """(columns, rows) of a lifisim CSV, gzipped or not, rows as dicts."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line and not line.startswith("#")]
    table = list(csv.reader(lines))
    columns = table[0]
    return columns, [dict(zip(columns, row)) for row in table[1:]]


def data_lines(path):
    """The data rows of a CSV, verbatim, for bit-identity checks."""
    with open(path) as fh:
        return [line for line in fh.read().splitlines()
                if line and not line.startswith("#")][1:]


def _num(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same(a, b):
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return a == b
    return x == y or (math.isnan(x) and math.isnan(y))


def _close(a, b):
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return False
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _snr_close(a, b):
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return False
    return x == y or abs(x - y) <= SNR_TOL_DB


def row_ok(rules, ref, new):
    """True when one output row matches its reference row."""
    for col, rule in rules.items():
        if col not in ref:
            continue
        if col not in new:
            return False
        a, b = ref[col], new[col]
        if rule == "exact":
            ok = _same(a, b)
        elif rule == "rel":
            ok = _close(a, b)
        elif rule == "snr":
            ok = _snr_close(a, b)
        elif rule == "wilson":
            v, lo, hi = _num(b), _num(ref["ci_low"]), _num(ref["ci_high"])
            ok = (_same(a, b) if None in (v, lo, hi) or math.isnan(lo)
                  else lo <= v <= hi)
        elif rule == "mi":
            v, m, se = _num(b), _num(a), _num(ref["stderr"])
            ok = (_same(a, b) if None in (v, m, se) or math.isnan(m)
                  else abs(v - m) <= MI_SIGMAS * se)
        else:
            raise ValueError(f"unknown rule {rule!r} for column {col}")
        if not ok:
            return False
    return True


def count_failed(name, ref_rows, new_rows):
    """Reference rows that are missing or outside tolerance in new_rows."""
    rules = RULES[name]
    failed = sum(not row_ok(rules, r, n) for r, n in zip(ref_rows, new_rows))
    failed += abs(len(ref_rows) - len(new_rows))
    return min(failed, len(ref_rows))


def count_mismatched_lines(a_lines, b_lines):
    """Lines that differ between two tables, counting missing ones."""
    differ = sum(x != y for x, y in zip(a_lines, b_lines))
    return differ + abs(len(a_lines) - len(b_lines))
