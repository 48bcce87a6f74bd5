"""suscav: noise budgets and control loops for suspended high-finesse cavities."""

from .cavity import (
    CavityParams,
    disp_per_hz,
    finesse,
    fsr,
    fwhm,
)
from .errors import ConfigError, GridError, NumericalError, UnitError
from .isolation import (
    ActuatorParams,
    GeophoneParams,
    PlatformParams,
    ZPK,
    closed_loop,
    loop_gain,
)
from .quantum import (
    FreeMassValidityWarning,
    QuantumConfig,
    kappa,
    kappa_unity_frequency,
    power_for_sql,
    quantum_noise_psd,
    sql_psd,
)
from .readout import (
    AcousticPeak,
    ReadoutConfig,
    SaturationWarning,
    acoustic_peaks,
    adc_noise_asd,
    intensity_rp_displacement,
    iss_profile,
    pll_noise_asd,
    saturation_margin,
)
from .scenario import (
    Scenario,
    assemble_budget,
    load_config,
    load_scenario,
    run_budget,
    run_isolation,
    run_quantum_design,
    run_suspension_tf,
)
from .spectra import (
    FrequencyGrid,
    NoiseBudget,
    Spectrum,
    band_rms,
    cumulative_rms,
    default_grid,
    make_log_grid,
    read_budget_csv,
)
from .suspension import (
    LinearModel,
    Mode,
    Stage,
    SuspensionChain,
    build_model,
    eigenmodes,
    mirror_force_susceptibility,
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
)
from .thermal import ThermalConfig, thermal_displacement

__version__ = "0.1.0"
