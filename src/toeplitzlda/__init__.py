"""Linear discriminant analysis with block-Toeplitz spatiotemporal covariance.

Classifies multichannel time-series epochs (channel-prime feature layout)
using a covariance estimator that combines Ledoit-Wolf shrinkage with
block-diagonal averaging and linear tapering, and solves the resulting
block-Toeplitz system densely when it is small and by block-circulant
preconditioned conjugate gradients, without forming the dense matrix, when
it is large.  Ships a synthetic-data generator and a benchmark
harness with fully seeded, byte-reproducible outputs.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    auc,
    draw_subsets,
    run_benchmark,
    split_train_val,
    write_report,
)
from .blockmat import (
    BlockCov,
    BlockDims,
    BlockToeplitzCov,
    apply_taper,
    block_diagonal_average,
    free_parameter_count,
    to_dense,
)
from .btsolve import (
    SolveReport,
    block_levinson_solve,
    block_toeplitz_matmul,
    block_toeplitz_solve,
    dense_solve,
)
from .covest import (
    ClassStats,
    class_means,
    estimate_covariance,
    ledoit_wolf_gamma,
    sample_covariance,
    shrink,
)
from .dataio import (
    Epochs,
    FeatureConfig,
    FeatureMatrix,
    extract_features,
    read_dataset,
    write_dataset,
)
from .errors import (
    DataFormatError,
    GroupSizeError,
    ShapeError,
    SolveBreakdownError,
    SolveError,
    ToeplitzLdaError,
)
from .lda import LdaModel, decision_values, fit, load_model, save_model
from .synth import (
    ErpSpec,
    NoiseModel,
    default_erp_spec,
    default_noise_model,
    generate_noise,
    inject_erp,
    true_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchReport",
    "BlockCov",
    "BlockDims",
    "BlockToeplitzCov",
    "ClassStats",
    "DataFormatError",
    "Epochs",
    "ErpSpec",
    "FeatureConfig",
    "FeatureMatrix",
    "GroupSizeError",
    "LdaModel",
    "NoiseModel",
    "ShapeError",
    "SolveBreakdownError",
    "SolveError",
    "SolveReport",
    "ToeplitzLdaError",
    "apply_taper",
    "auc",
    "block_diagonal_average",
    "block_levinson_solve",
    "block_toeplitz_matmul",
    "block_toeplitz_solve",
    "class_means",
    "decision_values",
    "default_erp_spec",
    "default_noise_model",
    "dense_solve",
    "draw_subsets",
    "estimate_covariance",
    "extract_features",
    "fit",
    "free_parameter_count",
    "generate_noise",
    "inject_erp",
    "ledoit_wolf_gamma",
    "load_model",
    "read_dataset",
    "run_benchmark",
    "sample_covariance",
    "save_model",
    "shrink",
    "split_train_val",
    "to_dense",
    "true_covariance",
    "write_dataset",
    "write_report",
]
