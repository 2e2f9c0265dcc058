"""stratsurv: stratified survival analysis and event-driven trial simulation.

The package covers one workflow end to end: size a two-arm time-to-event
trial from a target hazard ratio, generate trial datasets under three
prognostic-effect scenarios across 12 strata, analyze them with stratified
and unstratified log-rank tests and Cox regressions, and aggregate Monte
Carlo replicates into bias / SE / MSE / power summaries.

Data stay columnar throughout: replicates are generated in batches of (B, N)
subject arrays, each row from one (4, N) uniform block on its own stream, and
analyzed as such; ``generate_trial`` is the one-trial case, a ``TrialDataset``
of one array per subject field. ``control_rate_table`` gives the 12
control-arm rates by stratum index, and ``run_replicates`` returns a
``Replicates`` record of per-replicate columns that ``aggregate`` reduces.

Quick start::

    from stratsurv import (ScenarioSpec, TrialDesign, RngStream,
                           generate_trial, cox_fit, AnalysisSpec, Method)

    design = TrialDesign.from_event_target(true_hr=0.6, target_events=120)
    data = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                          RngStream(seed=7, replicate_index=0))
    fit = cox_fit(data, AnalysisSpec(Method.COX_STRATIFIED))
    print(fit.treatment_hr, fit.treatment_se)
"""

from .config import StudyConfig, load_study_config, parse_study_config
from .datagen import RngStream, TrialDataset, generate_trial
from .design import DesignInputs, sample_size, schoenfeld_events
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateTestError,
    InvalidModelError,
    InvalidParameterError,
)
from .inference import (
    AnalysisSpec,
    CoxFit,
    LogRankResult,
    Method,
    cox_fit,
    logrank,
    partial_likelihood_terms,
)
from .io import read_subject_records, write_results_csv, write_subject_records
from .simulate import (
    AggregateMetrics,
    MethodMetrics,
    Replicates,
    SimConfig,
    StudyRow,
    aggregate,
    run_replicates,
    run_study,
)
from .trial import (
    STRATUM_COUNT,
    ScenarioKind,
    ScenarioSpec,
    TrialDesign,
    control_rate_table,
    median_to_rate,
)

__version__ = "0.1.0"
