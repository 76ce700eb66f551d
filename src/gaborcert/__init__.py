"""Gabor spectrogram phase retrieval on square covers.

Closed-form Gaussian-mixture signals, numerical transform fields, the
diagonal-tensor recovery machinery, weighted-graph stability certificates,
Gauss product cubature with rigorous error bounds, and an end-to-end
retrieval pipeline with a batch CLI.
"""

from .signal_model import (
    EntireExtensionParams,
    GaussianAtom,
    GaussianMixtureSignal,
    entire_extension,
    gabor_closed_form,
    l2_norm,
    make_sharpness_pair,
)
from .gabor_engine import (
    GABOR,
    SPECTROGRAM,
    Grid2D,
    Region,
    SampledSignal,
    SpectrogramField,
    Square,
    mixture_field,
    quadrature_gabor,
    region_norm,
    spectrogram,
)
from .tensor_phase import (
    LocalJet,
    TensorWeights,
    delta_r,
    delta_structural_bound,
    distance_from_delta,
    jet_from_mixture,
    local_phase_from_modulus,
    tensor_weights,
)
from .stability_graph import (
    ConnectivityReport,
    SquareCover,
    StabilityCertificate,
    WeightedGraph,
    algebraic_connectivity,
    build_graph,
    certificate,
    cheeger_constant,
    cheeger_inequality_check,
)
from .cubature import (
    GaussRule1D,
    ProductRule2D,
    SamplingPlan,
    chawla_bound,
    cubature_error,
    discrete_weighted_norm,
    gauss_rule,
    legendre_lower_bound_check,
    plan_sampling,
    product_rule,
    spectro_error_bound,
)
from .stitching import (
    GlobalAlignment,
    LocalAlignment,
    RetrievalResult,
    local_align,
    min_phase_distance,
    retrieve_phase,
    synchronize,
)

__version__ = "0.1.0"
