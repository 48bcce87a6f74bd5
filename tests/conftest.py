import json

import pytest

from suscav.cavity import CavityParams
from suscav.cli import resolve_config
from suscav.scenario import Scenario, load_config
from suscav.spectra import make_log_grid


@pytest.fixture
def paper_cavity():
    """Measured cavity: 95 mm, 1550 nm, 7.5 ppm mirrors, 1 ppm excess loss."""
    return CavityParams(
        wavelength=1.55e-6,
        length=0.095,
        input_transmission=7.5e-6,
        end_transmission=7.5e-6,
        excess_loss=1e-6,
        mirror_mass=0.01,
    )


@pytest.fixture
def grid_band():
    return make_log_grid(0.1, 1.0e4, 1000)


@pytest.fixture
def default_config():
    return load_config(resolve_config("paper_default"))


@pytest.fixture
def default_scenario(default_config):
    return Scenario.from_dict(default_config)


@pytest.fixture
def config_factory(default_config):
    """Deep-copied default config for local modification."""
    def factory():
        return json.loads(json.dumps(default_config))
    return factory
