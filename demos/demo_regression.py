"""OLS, ANOVA, and the published-figure audit.

Fits the bundled data-wastage survey fixture (six binary practice
indicators against a wastage score), ranks each factor by its
single-variable fit, and recomputes the published regression summary
from its own sums of squares, printing every internal inconsistency
the audit finds.
"""
import numpy as np

from dwkit.fixtures import (WAREHOUSE_PREDICTORS, WAREHOUSE_RESPONSE,
                            warehouse_survey_table)
from dwkit.regress import (ModelSpec, anova, factor_lines, fit_model,
                           summarize, survey_identity_report)
from dwkit.schema_pca import Moments

table = warehouse_survey_table()
spec = ModelSpec(response=WAREHOUSE_RESPONSE,
                 predictors=tuple(WAREHOUSE_PREDICTORS))
fit = fit_model(table, spec)
summary = summarize(fit)
aov = anova(fit)

print("full model on the survey fixture:")
print("  R^2 = %.4f  adj R^2 = %.4f  SE = %.4f  n = %d"
      % (summary.r_square, summary.adjusted_r_square,
         summary.standard_error, summary.observations))
print("  F(%d, %d) = %.3f  significance = %.2e"
      % (aov.df_regression, aov.df_residual, aov.f, aov.significance_f))

print("\nsingle-factor ranking (strongest first):")
names = [WAREHOUSE_RESPONSE, *WAREHOUSE_PREDICTORS]
moments = Moments.of(np.column_stack([table.column(n) for n in names]),
                     names)
for ln in factor_lines(moments):
    print("  %-4s slope=%+.3f  r^2=%.3f"
          % (ln.predictor, ln.slope, ln.r_square))

print("\naudit of the published summary (recomputed from its own SS):")
report = survey_identity_report()
s, a = report["summary"], report["anova"]
print("  R^2=%.6f  MultipleR=%.6f  SE=%.6f"
      % (s.r_square, s.multiple_r, s.standard_error))
print("  MS=%.6f/%.1f  F=%.6f  SigF=%.6f"
      % (a.ms_regression, a.ms_residual, a.f, a.significance_f))
for warning in report["warnings"]:
    print("  WARNING:", warning)
