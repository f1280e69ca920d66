"""dwkit: staging planning, placement simulation, schema design, chunked
MapReduce, and regression diagnostics for peta-scale warehouse pipelines.

``import dwkit`` loads none of the command modules: each public name, and
each submodule (``dwkit.chunkstore``, ...), is imported on first use
(PEP 562)."""

import importlib
import sys
import types

__version__ = "0.1.0"

_HOMES = {
    "staging": ("AnalysisKernel", "ClusterConfig", "EnergyBreakdown",
                "StagingPlan", "Workload", "plan"),
    "schema_pca": ("NumericMatrix", "SchemaProposal", "design_schema"),
    "placement": ("PlacementPolicy", "PlacementSimulator", "StorageSite",
                  "run_scenario"),
    "chunkstore": ("DataTable", "open_datastore", "read_chunks"),
    "mapreduce": ("mapreduce",),
    "regress": ("ModelSpec", "anova", "f_pvalue", "fit_ols", "summarize"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps ``dwkit.mapreduce`` the function: importing the submodule of
    that name binds the module to it in the package."""

    def __setattr__(self, name, value):
        if _HOME.get(name) == name and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
