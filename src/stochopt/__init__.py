"""stochopt: adaptive-regularization and quasi-Newton stochastic optimizers
with a reproducible benchmark harness.

Public surface:

- problems: finite-sum test problems (sigmoid-SVM, logistic, quadratics)
- sampling: seeded batch sampling, variance estimates, norm test
- regularization: ARIG (adaptive regularization, inexact gradients); its
  RegParams holds the oracle mode
- aras: ARAS (adaptive regularization + adaptive sampling, Pflug diagnostic)
- lbfgs_core: damped L-BFGS memory with eigenvalue-bound control
- varchen: VARCHEN (variance-reduced stochastic damped L-BFGS); its
  VarchenParams holds the step schedule and gives step_size(k)
- baselines: SGD and SVRG (BaselineParams), SGD with momentum
  (MomentumParams)
- record: StepRecord, the per-step trace entry of every optimizer, and
  RunResult, every run's outcome (ARIG adds terminated and sigma_final; its
  step counts and max sigma, and ARAS's trigger, are read from the trace),
  and Recorder, the trace a harness run keeps x in only on report rows
- harness: configs (each section is one of the classes above, key for
  field), dataset IO, metrics CSV, CLI
"""

from .aras import (
    ArasParams,
    ArasState,
    PflugState,
    aras_run,
    pflug_triggered,
    pflug_update,
    stationary_step,
    transient_step,
    update_sigma_two_branch,
)
from .baselines import (
    BaselineParams,
    MomentumParams,
    sgd_momentum_run,
    sgd_run,
    svrg_run,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    SyntheticSpec,
    compare,
    gen_synthetic,
    load_config,
    load_csv,
    load_libsvm,
    read_metrics_csv,
    run_experiment,
    save_csv,
    save_libsvm,
    write_metrics_csv,
)
from .lbfgs_core import (
    CurvaturePair,
    LBFGSMemory,
    damped_y,
    damping_theta,
    enforce_bounds,
    estimate_Lg,
    hessian_bounds,
    pair_update_eigen_bounds,
    push_pair,
    two_loop_apply,
    update_scaling,
)
from .problems import (
    Dataset,
    FiniteSumProblem,
    LinearModelProblem,
    QuadraticProblem,
    make_logistic,
    make_noisy_quadratic,
    make_quadratic,
    make_sigmoid_svm,
)
from .record import RunResult, StepRecord
from .regularization import (
    RegParams,
    RegState,
    adversarial_grad_oracle,
    arig_run,
    arig_step,
    check_inexact_decrease,
    complexity_budget,
    exact_fun_oracle,
    exact_grad_oracle,
    model_decrease,
    noisy_fun_oracle,
    rho_ratio,
    sigma_max_bound,
    update_sigma,
)
from .sampling import (
    SamplerState,
    adaptive_batch_size,
    norm_test,
    sample_variance_l1,
)
from .varchen import (
    AnchorState,
    VarchenParams,
    harmonic_schedule_from_L,
    power_schedule_from_L,
    svrg_gradient,
    varchen_run,
)

__version__ = "0.1.0"
