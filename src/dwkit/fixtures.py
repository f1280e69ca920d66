"""Bundled data fixtures.

The five-warehouse survey behind the published regression tables never
shipped its raw data, so a synthetic stand-in with fully documented
generation rules is bundled instead.  It has 12 observations (matching
the published ANOVA degrees of freedom), six binary adoption flags, and a
data-wastage response constructed so that user perception (UP) explains
by far the most single-variable variance.
"""
from __future__ import annotations

import numpy as np

from .chunkstore import DataTable

WAREHOUSE_PREDICTORS = ("MS", "RE", "UP", "TS", "SS", "DT")
WAREHOUSE_RESPONSE = "DW"

# fixed adoption patterns, one bit per surveyed warehouse
_FLAGS = {
    "MS": (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0),
    "RE": (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0),
    "UP": (1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
    "TS": (0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
    "SS": (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1),
    "DT": (0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1),
}

# response = 3 + 4*UP + 2*SS + 1*MS + a small fixed wiggle (mean zero)
_WIGGLE = (0.25, -0.25, 0.5, -0.5, 0.25, -0.25, 0.5, -0.5,
           0.25, -0.25, 0.5, -0.5)


def warehouse_survey_table() -> DataTable:
    """The synthetic 12-warehouse survey as a DataTable."""
    n = len(_WIGGLE)
    columns, missing, kinds = {}, {}, {}
    dw = np.array([3.0 + 4.0 * _FLAGS["UP"][i] + 2.0 * _FLAGS["SS"][i]
                   + 1.0 * _FLAGS["MS"][i] + _WIGGLE[i] for i in range(n)])
    columns[WAREHOUSE_RESPONSE] = dw
    missing[WAREHOUSE_RESPONSE] = np.zeros(n, dtype=bool)
    kinds[WAREHOUSE_RESPONSE] = "real"
    for name in WAREHOUSE_PREDICTORS:
        columns[name] = np.array(_FLAGS[name], dtype=np.int64)
        missing[name] = np.zeros(n, dtype=bool)
        kinds[name] = "integer"
    return DataTable(columns, missing, kinds)


def data_path(name) -> str:
    """Filesystem path of a bundled data file.  ``importlib.resources``
    is imported here, as it costs tens of ms to import and only a command
    that reads bundled data needs it."""
    import importlib.resources
    return str(importlib.resources.files("dwkit").joinpath("data", name))


def server_records_path() -> str:
    """Bundled sample of server activity records (8 rows)."""
    return data_path("server_records.csv")


def overload_scenario_path() -> str:
    """Bundled placement scenario where arrivals outrun service."""
    return data_path("overload_scenario.json")
