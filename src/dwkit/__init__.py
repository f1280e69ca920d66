"""dwkit: staging planning, placement simulation, schema design, chunked
MapReduce, and regression diagnostics for peta-scale warehouse pipelines."""

__version__ = "0.1.0"

from .staging import (AnalysisKernel, ClusterConfig, EnergyBreakdown,
                      StagingPlan, Workload, plan)
from .schema_pca import NumericMatrix, SchemaProposal, design_schema
from .placement import (PlacementPolicy, PlacementSimulator, StorageSite,
                        run_scenario)
from .chunkstore import DataTable, open_datastore, read_chunks
from .mapreduce import mapreduce
from .regress import ModelSpec, anova, f_pvalue, fit_ols, summarize

__all__ = [
    "AnalysisKernel", "ClusterConfig", "EnergyBreakdown", "StagingPlan",
    "Workload", "plan", "NumericMatrix", "SchemaProposal", "design_schema",
    "PlacementPolicy", "PlacementSimulator", "StorageSite", "run_scenario",
    "DataTable", "open_datastore", "read_chunks", "mapreduce",
    "ModelSpec", "anova", "f_pvalue", "fit_ols", "summarize",
    "__version__",
]
