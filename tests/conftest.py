import numpy as np
import pytest

from clfbl import SystemConfig
from clfbl.derivatives import _dl_d_eps, _dl_link, _ul_d_eps, _ul_link

TABLE1 = dict(
    d=8.0, f_s=250e3, M=1.0, E=0.65e-6, p_dl=10e-3, N=3e-3,
    n_max=2500.0, g_ul=1.0, g_dl=1.0,
)


@pytest.fixture
def table1() -> SystemConfig:
    """Reference setup at the 3 mW case-study noise level."""
    return SystemConfig(**TABLE1)


def make_config(**overrides) -> SystemConfig:
    return SystemConfig(**{**TABLE1, **overrides})


def d_eps_ul(cfg: SystemConfig, n_ul) -> np.ndarray:
    """d eps_ul/d n_ul at each blocklength, from the array derivative kernel."""
    return _ul_d_eps(cfg, _ul_link(cfg, np.asarray(n_ul, dtype=float)))[0]


def d_eps_dl(cfg: SystemConfig, n_ul) -> np.ndarray:
    """d eps_dl/d n_ul at each blocklength, from the array derivative kernel."""
    return _dl_d_eps(cfg, _dl_link(cfg, np.asarray(n_ul, dtype=float)))[0]
