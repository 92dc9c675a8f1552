"""Configuration invariants and JSON round trips."""
import dataclasses
import math

import numpy as np
import pytest

from pdfisp.config import (C0, ConfigError, ImagingConfig, config_from_dict, config_hash,
                           config_to_dict, load_config, save_config)
from pdfisp.studies import spec_from_dict


def test_defaults_validate():
    cfg = ImagingConfig()
    assert cfg.validate() is cfg


def test_derived_quantities():
    cfg = ImagingConfig(frequency=400e6, doi_side=1.5, m1=64, m_f=7)
    assert cfg.wavelength == pytest.approx(C0 / 400e6)
    assert cfg.wavenumber == pytest.approx(2.0 * math.pi * 400e6 / C0)
    assert cfg.radius == pytest.approx(20.0 * cfg.wavelength)


def test_explicit_ring_radius_wins():
    cfg = ImagingConfig(ring_radius=3.0)
    assert cfg.radius == 3.0


@pytest.mark.parametrize("kwargs", [
    dict(frequency=0.0),
    dict(doi_side=-1.0),
    dict(m1=0),
    dict(n_tx=0),
    dict(beta=0.0),
    dict(m_f=0),
    dict(m_f=40),                 # 2*m_f exceeds the 64-cell grid edge
    dict(lambda1=-1e-3),
    dict(k_iters=-1),
    dict(learn_rate=0.0),
    dict(ring_radius=1.0),        # inside the circumscribed circle of the domain
    dict(solver_tol=0.0),
    dict(n_rx=0),
    dict(lambda2=-1e-5),
])
def test_validate_rejects(kwargs):
    # the message names the field and the value, as `ImagingConfig.m1 must be >= 1, got 0`
    ((name, value),) = kwargs.items()
    with pytest.raises(ConfigError, match=rf"^ImagingConfig\.{name} must .*, got {value}$"):
        ImagingConfig(**kwargs).validate()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ImagingConfig) if f.type.startswith("float")]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validate_rejects_nan_naming_the_field(name):
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=rf"ImagingConfig\.{name} must .*got {value}"):
            ImagingConfig(**{name: value})


def test_ring_must_clear_domain_corner():
    # doi_side*sqrt(2)/2 = 1.0607 for the default 1.5 m domain
    with pytest.raises(ConfigError):
        ImagingConfig(ring_radius=1.06).validate()
    ImagingConfig(ring_radius=1.07).validate()


def test_json_round_trip(tmp_path):
    cfg = ImagingConfig(frequency=1e9, m1=32, m2=48, m_f=5, lambda2=0.0, use_cco=False,
                        ring_radius=4.5)
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_round_trip_preserves_every_field():
    cfg = ImagingConfig()
    back = config_from_dict(config_to_dict(cfg))
    for f in dataclasses.fields(ImagingConfig):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name


def test_unknown_key_rejected():
    d = config_to_dict(ImagingConfig())
    d["not_a_field"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_reader_keeps_ints_and_rejects_wrong_types():
    cfg = config_from_dict({"beta": 6, "ring_radius": None})
    assert type(cfg.beta) is int                                    # no coercion
    assert config_hash(cfg) == config_hash(ImagingConfig(beta=6))
    spec = spec_from_dict({"config": {"doi_side": 1}})              # a nested dataclass
    assert type(spec.config.doi_side) is int and spec.config == ImagingConfig(doi_side=1)
    for bad in ({"beta": True}, {"m1": True}, {"use_cco": 1},
                {"ring_radius": "3"}, {"rng_seed": None}):
        with pytest.raises(ConfigError, match=f"ImagingConfig.{next(iter(bad))}"):
            config_from_dict(bad)
    with pytest.raises(ConfigError, match="StudySpec.config: expected ImagingConfig"):
        spec_from_dict({"config": 1})
    # library callers are not type-checked, only checked for the invariants
    assert ImagingConfig(m1=np.int64(16), m2=16, m_f=3).m1 == 16


def test_hash_stable_and_sensitive():
    a = ImagingConfig()
    b = ImagingConfig()
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(ImagingConfig(rng_seed=1))
    assert len(config_hash(a)) == 16
