"""CSV and JSON exchange for inputs, state matrices, profiles and metrics.

State CSVs are written with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly; ingestion therefore feeds the
analysis pipeline the same numbers an in-memory run would see.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .reservoir import StateMatrix
from .tipc import BasisTerm, CapacityProfile

_FMT = "%.17g"


class IngestError(ValueError):
    """Malformed trace data; the message carries file and line context."""


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]):
    """Header line, then one line per row of ``str``-formatted cells, quoted
    where a cell holds a comma, a quote or a line break."""
    import csv   # on first write: `train` writes no CSV, and the import costs 0.12 MiB
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(str, row) for row in rows)


def write_inputs_csv(path, values: Sequence[float]):
    values = np.asarray(values, dtype=float)
    write_csv(path, ["t", "value"], ((t, _FMT % v) for t, v in enumerate(values)))


def read_inputs_csv(path) -> np.ndarray:
    rows = _read_numeric_csv(path, expected_first="t", min_cols=2, max_cols=2)
    return rows[:, 1]


def write_states_csv(path, states):
    data = states.data if isinstance(states, StateMatrix) else np.asarray(states, dtype=float)
    header = ["t"] + [f"x{i + 1}" for i in range(data.shape[1])]
    write_csv(path, header, ([t] + [_FMT % v for v in row] for t, row in enumerate(data)))


def read_states_csv(path) -> StateMatrix:
    rows = _read_numeric_csv(path, expected_first="t", min_cols=2)
    return StateMatrix(rows[:, 1:])


def _read_numeric_csv(path, expected_first: str, min_cols: int,
                      max_cols: Optional[int] = None) -> np.ndarray:
    path = Path(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if not header or header[0] != expected_first:
        raise IngestError(f"{path}:1: header must start with {expected_first!r}, "
                          f"got {lines[0]!r}")
    n_cols = len(header)
    if n_cols < min_cols or (max_cols is not None and n_cols > max_cols):
        raise IngestError(f"{path}:1: unexpected column count {n_cols}")
    if n_cols > 1 and header[1:] != [f"x{i + 1}" for i in range(n_cols - 1)] \
            and header[1:] != ["value"]:
        raise IngestError(f"{path}:1: columns must be named value or x1..xN")
    out = np.empty((len(lines) - 1, n_cols))
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise IngestError(f"{path}:{i}: expected {n_cols} fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise IngestError(f"{path}:{i}: non-numeric field") from None
        if vals[0] != i - 2:
            # a trace's rows are analysed in file order, so t must count them
            raise IngestError(f"{path}:{i}: t must be {i - 2}, got {parts[0].strip()!r}")
        if any(math.isnan(v) or math.isinf(v) for v in vals[1:]):
            raise IngestError(f"{path}:{i}: NaN or Inf value")
        out[i - 2] = vals
    return out


def read_trace(inputs_csv, states_csvs: Sequence) -> Tuple[np.ndarray, List[StateMatrix]]:
    """Read a recorded run's inputs and state matrices; all files must agree on T."""
    inputs = read_inputs_csv(inputs_csv)
    states = [read_states_csv(p) for p in states_csvs]
    for path, sm in zip(states_csvs, states):
        if sm.n_steps != len(inputs):
            raise IngestError(
                f"{path}: {sm.n_steps} state rows but {len(inputs)} input rows")
    return inputs, states


# ---------------------------------------------------------------------------
# Profiles and metrics
# ---------------------------------------------------------------------------

def profile_to_dict(prof: CapacityProfile) -> dict:
    """The profile JSON as a dict; ``write_profile_json`` writes its text."""
    head = _profile_head(prof)
    head["records"] = [
        {
            "label": term.label(),
            "family": term.family,
            "input_exponents": [list(x) for x in term.input_exponents],
            "state_exponents": [list(x) for x in term.state_exponents],
            "input_order": term.input_order,
            "state_order": term.state_order,
            "classification": "TIV" if term.is_time_invariant else "TV",
            "capacity": capacity,
            "truncated": truncated,
        }
        # tolist: JSON takes Python floats and bools, not np.bool_
        for term, capacity, truncated in zip(prof.terms, prof.capacity.tolist(),
                                             prof.truncated.tolist())
    ]
    return head


def _profile_head(prof: CapacityProfile) -> dict:
    """Every field of ``profile_to_dict`` before ``records``."""
    return {
        "rank": prof.rank,
        "threshold": prof.threshold,
        "threshold_params": prof.threshold_params,
        "c_tot": prof.c_tot,
        "c_tiv_tot": prof.c_tiv_tot,
        "c_tv_tot": prof.c_tv_tot,
        "by_degree": [
            {
                "degree": d,
                "tiv": prof.tiv_by_degree.get(d, 0.0),
                "tv": prof.tv_by_degree.get(d, 0.0),
            }
            for d in prof.degrees()
        ],
    }


def _int_rows(rows) -> str:
    """A record's list of int lists, laid out as ``json.dump(indent=2)`` does."""
    if not rows:
        return "[]"
    items = ",\n".join("        [\n          " + ",\n          ".join(map(str, row))
                       + "\n        ]" for row in rows)
    return f"[\n{items}\n      ]"


def _record_text(term: BasisTerm) -> str:
    """The text of a term's record in the profile JSON, up to the value of
    ``capacity``: the fields that depend on the term alone."""
    return (f'    {{\n      "label": {encode_basestring_ascii(term.label())},\n'
            f'      "family": {encode_basestring_ascii(term.family)},\n'
            f'      "input_exponents": {_int_rows(term.input_exponents)},\n'
            f'      "state_exponents": {_int_rows(term.state_exponents)},\n'
            f'      "input_order": {term.input_order},\n'
            f'      "state_order": {term.state_order},\n'
            f'      "classification": "{"TIV" if term.is_time_invariant else "TV"}",\n'
            '      "capacity": ')


def write_profile_json(path, prof: CapacityProfile):
    """Write ``json.dump(profile_to_dict(prof), fh, indent=2)`` and a newline.

    The bytes are the same; only the records are formatted here, from each
    term's text, its capacity and its truncation flag, since
    ``json.dump`` with an indent runs the pure-Python encoder.  The head and
    then each record go straight to the file, so no copy of the whole text
    is held.
    """
    head = json.dumps(_profile_head(prof), indent=2)
    # json writes finite floats as float.__repr__ does
    fmt = float.__repr__ if np.isfinite(prof.capacity).all() else json.dumps
    with open(path, "w") as fh:
        fh.write(f'{head[:-2]},\n  "records": [')
        sep = "\n"
        for term, capacity, truncated in zip(prof.terms, prof.capacity.tolist(),
                                             prof.truncated.tolist()):
            fh.write(f'{sep}{_record_text(term)}{fmt(capacity)},\n'
                     f'      "truncated": {"true" if truncated else "false"}\n    }}')
            sep = ",\n"
        fh.write("\n  ]\n}\n" if prof.terms else "]\n}\n")


def write_profile_degrees_csv(path, prof: CapacityProfile):
    """Plot-ready per-degree aggregates: degree, TIV total, TV total."""
    tiv, tv = prof.tiv_by_degree, prof.tv_by_degree
    write_csv(path, ["degree", "tiv_total", "tv_total"],
              ((d, _FMT % tiv.get(d, 0.0), _FMT % tv.get(d, 0.0)) for d in prof.degrees()))


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_esp_csv(path, deltas: np.ndarray):
    write_csv(path, ["t", "delta"], ((t, _FMT % v) for t, v in enumerate(deltas)))
