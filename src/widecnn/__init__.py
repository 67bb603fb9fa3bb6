"""widecnn: a numerical laboratory for patch-based CNNs with a wide layer.

Builds weight configurations with provably rank-N features and exactly
zero training loss, and verifies the landscape facts those constructions
rest on (rank genericity under random weights, gradient sandwich bounds,
zero loss iff zero gradient at full-rank points) at desk scale.
"""

from .activations import (
    Activation,
    ActivationProfile,
    Identity,
    ReLU,
    Sigmoid,
    Softplus,
    activation_from_dict,
)
from .analysis import (
    BoundReport,
    CriticalPointReport,
    MembershipReport,
    RankReport,
    WidthAudit,
    critical_point_check,
    estimate_rank,
    gradient_bounds,
    s_k_membership,
    width_audit,
)
from .assumptions import (
    ConvStructureReport,
    DistinctPatchesReport,
    check_conv_structure,
    check_distinct_patches,
    ensure_hidden_activations,
    ensure_wide_pyramid_assumptions,
    perturb_dataset,
)
from .constructions import (
    ConstructionParams,
    WideLayerReport,
    expressivity_fit,
    expressivity_params,
    independence_construction,
    independence_construction_report,
    transport_construction,
    zero_loss_construction,
)
from .data import (
    load_idx,
    read_idx_images,
    read_idx_labels,
    synthesize_dataset,
    write_idx_images,
    write_idx_labels,
)
from .errors import (
    AssumptionError,
    ConfigError,
    ConstructionFailedError,
    FormatError,
    GenerationError,
    IllConditionedError,
    NumericError,
    NumericOverflowError,
    RangeError,
    StructuralError,
    TrainingDivergedError,
    UnsupportedLayerError,
    WideCnnError,
    WidthError,
)
from .gradients import (
    GradientSet,
    backward,
    finite_difference_gradient,
    loss,
    max_relative_gradient_error,
)
from .layout import (
    PatchLayout,
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    full_layout,
    pool2d_multichannel_layout,
)
from .netspec_io import load_netspec, save_netspec, spec_from_dict, spec_to_dict
from .network import (
    Conv,
    Dataset,
    ForwardTrace,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    Output,
    Params,
    Workspace,
    forward,
    lift_adjoint,
    lift_weights,
)
from .training import (
    AdamConfig,
    LearningRateSchedule,
    TrainConfig,
    TrainResult,
    classification_errors,
    train_adam,
)

__version__ = "0.1.0"
