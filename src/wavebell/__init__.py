"""Bell-test simulation toolkit for classical stochastic optical fields.

Models partially polarized light as finite ensembles of stochastic
two-component fields, decomposes them into polarization and function-space
factors, and reproduces an interferometric Bell-test protocol end to end:
source synthesis, polarization tomography, Schmidt decomposition,
stripping-polarizer interferometry, intensity-based joint-probability
extraction, and CHSH evaluation with bootstrap errors.
"""

from .bell import (
    AngleSettings,
    LhvModel,
    SHIPPED_LHV_MODELS,
    chsh_sum,
    correlation_closed_form,
    correlation_sum,
    cosine_response_model,
    joint_probability_kappa,
    joint_probability_projected,
    lhv_chsh,
    lhv_correlation,
    max_chsh,
    sign_response_model,
)
from .ensemble import (
    FieldEnsemble,
    SchmidtDecomposition,
    StokesVector,
    dop,
    inner,
    kappa_from_dop,
    polarization_report,
    schmidt,
    schmidt_functions,
    stokes,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    tomography,
)
from .errors import (
    DegenerateFieldError,
    DomainError,
    ExtractionError,
    ModelContractError,
    StrippedBeamError,
    WavebellError,
)
from .interferometer import (
    BellReport,
    CorrelationCurve,
    NoiseModel,
    ProtocolConfig,
    SettingResult,
    measure_intensities,
    probabilities_from_triples,
    run_bell_protocol,
    scan_correlation,
)
from .optics import (
    LabBasis,
    apply,
    beamsplitter_combine,
    beamsplitter_split,
    chain_power,
    polarizer_axis,
    polarizer_matrix,
    reduce_polarizer_angle,
    stripping_angle,
    stripping_angle_orthogonal,
    waveplate_matrix,
)

__version__ = "0.1.0"
