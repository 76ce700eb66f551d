"""Gabor spectrogram phase retrieval on square covers.

Closed-form Gaussian-mixture signals, numerical transform fields, local
phase recovery from modulus jets, weighted-graph stability certificates,
Gauss product cubature with rigorous error bounds, and an end-to-end
retrieval pipeline with a batch CLI.
"""

from .signal_model import (
    GaussianAtom,
    GaussianMixtureSignal,
    gabor_closed_form,
    l2_norm,
    make_sharpness_pair,
)
from .gabor_engine import (
    GABOR,
    SPECTROGRAM,
    Grid2D,
    SampledSignal,
    SpectrogramField,
    mixture_field,
    quadrature_gabor,
    region_norm,
    spectrogram,
)
from .tensor_phase import (
    LocalJet,
    jet_from_mixture,
    local_phase_from_modulus,
)
from .stability_graph import (
    SquareCover,
    StabilityCertificate,
    WeightedGraph,
    algebraic_connectivity,
    build_graph,
    certificate,
    cheeger_constant,
)
from .cubature import (
    GaussRule1D,
    ProductRule2D,
    SamplingPlan,
    gauss_rule,
    plan_sampling,
    product_rule,
    spectro_error_bound,
)
from .stitching import (
    RetrievalResult,
    min_phase_distance,
    retrieve_phase,
    sharpness_ratio,
    stability_distances,
)

__version__ = "0.1.0"
