import hashlib
import importlib
import math
import pickle
import random
import sys
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forkwork import model
from forkwork.cli import preset_jobs
from forkwork.model import (
    ChannelParams,
    ConfigError,
    LatencyModel,
    SystemConfig,
    config_digest,
    config_text,
    default_config,
    derive,
    mean_snr,
    noise_power_w,
    parse_config_text,
)


def test_noise_power_unit_conversion():
    # dBm/Hz to W oracle: 10^((psd + 10 log10 B - 30) / 10)
    expected = 10.0 ** ((-174.0 + 10.0 * math.log10(180e3) - 30.0) / 10.0)
    got = noise_power_w(-174.0, 180e3)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(7.167e-16, rel=1e-3)


def test_free_space_gain_hand_value():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    # (lambda / (4 pi d))^2 at 2.4 GHz, 50 m, evaluated by hand
    assert d.path_gain == pytest.approx(3.958e-8, rel=1e-3)


def test_compute_rate_from_power_scaling():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    assert d.compute_rate == pytest.approx(0.32, rel=1e-12)


def test_move_time_half_wavelength():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    # (c/f)/2 / v = 0.125/2/10
    assert d.move_time_s == pytest.approx(6.25e-3, rel=1e-12)


def test_derive_is_pure():
    cfg = default_config()
    a = derive(cfg.channel, cfg.miner)
    b = derive(cfg.channel, cfg.miner)
    assert a == b


def test_doubling_distance_quarters_gain():
    cfg = default_config()
    near = derive(cfg.channel, cfg.miner)
    far = derive(replace(cfg.channel, distance_m=2 * cfg.channel.distance_m), cfg.miner)
    assert far.path_gain == pytest.approx(near.path_gain / 4.0, rel=1e-12)
    assert far.noise_power_w == near.noise_power_w
    assert far.compute_rate == near.compute_rate


@given(st.floats(min_value=1.0, max_value=1e4))
def test_gain_scaling_property(distance):
    ch = replace(default_config().channel, distance_m=distance)
    ch2 = replace(ch, distance_m=2 * distance)
    cfg = default_config()
    g1 = derive(ch, cfg.miner).path_gain
    g2 = derive(ch2, cfg.miner).path_gain
    assert g2 == pytest.approx(g1 / 4.0, rel=1e-9)


def test_mean_snr_matches_derived_rate():
    ch = default_config().channel
    d = derive(ch, default_config().miner)
    assert mean_snr(ch) == pytest.approx(1.0 / d.snr_rate, rel=1e-12)


def test_default_threshold_sits_at_mean_snr():
    cfg = default_config()
    d = derive(cfg.channel, cfg.miner)
    assert d.success_prob == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_validate_default_ok():
    cfg = default_config()  # building a SystemConfig checks it
    assert replace(cfg) == cfg


def test_validate_zero_miners():
    with pytest.raises(ConfigError) as exc:
        replace(default_config(), num_miners=0)
    assert any("num_miners" in e for e in exc.value.errors)


def test_config_error_survives_a_pickle_round_trip():
    # a sweep's analytic job returns its error through the worker pool
    error = ConfigError(["num_miners must be >= 1", "tx_power_w must be positive"])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is ConfigError
    assert copy.errors == error.errors
    assert str(copy) == str(error) == "num_miners must be >= 1; tx_power_w must be positive"
    assert copy.args == error.args


def test_validate_negative_threshold():
    cfg = default_config()
    with pytest.raises(ConfigError) as exc:
        replace(cfg, channel=replace(cfg.channel, snr_threshold=-1.0))
    assert any(e == "snr_threshold must be positive" for e in exc.value.errors)


def test_validate_zero_threshold_rejected():
    # threshold 0 would make the max uplink latency infinite
    cfg = default_config()
    with pytest.raises(ConfigError) as exc:
        replace(cfg, channel=replace(cfg.channel, snr_threshold=0.0))
    assert exc.value.errors


def test_validate_aggregates_everything():
    cfg = default_config()
    with pytest.raises(ConfigError) as exc:
        replace(
            cfg,
            num_miners=0,
            channel=replace(cfg.channel, snr_threshold=-1.0, tx_power_w=-2.0),
        )
    assert len(exc.value.errors) >= 3


def test_validate_tolerances():
    cfg = default_config()
    for change in ({"quadrature_tol": 0.5}, {"rng_seed": -1}):
        with pytest.raises(ConfigError) as exc:
            replace(cfg, **change)
        assert exc.value.errors


def test_config_is_checked_once_when_built(monkeypatch):
    cfg = default_config()
    checks = []
    real = SystemConfig.__post_init__

    def counting(self):
        checks.append(self)
        real(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    replace(cfg, num_miners=3)
    assert len(checks) == 1
    pickle.loads(pickle.dumps(cfg))  # how a config reaches a pool worker
    assert len(checks) == 1


def test_derive_rejects_near_field():
    ch = replace(default_config().channel, distance_m=1e-4)
    with pytest.raises(ValueError):
        derive(ch, default_config().miner)


def test_config_round_trip():
    # the file holds the threshold in dB, so the linear threshold read back may move by a
    # few ulps (26 at most over 2,000 such configs); every other field comes back exactly,
    # and the text of the config read back is the text it was read from
    rng = random.Random(7)
    for _ in range(1000):
        cfg = default_config(
            rng.randint(1, 2000),
            tx_power_w=10 ** rng.uniform(-2.0, 0.3),
            snr_fraction=10 ** rng.uniform(-1.0, 2.0),
            latency_model=rng.choice(list(LatencyModel)),
        )
        cfg = replace(cfg, miner=replace(cfg.miner, lambda0=10 ** rng.uniform(-2.4, 2.3)))
        text = config_text(cfg)
        back = parse_config_text(text)
        assert config_text(back) == text
        threshold, read = cfg.channel.snr_threshold, back.channel.snr_threshold
        assert abs(read - threshold) <= 32 * math.ulp(threshold)
        assert replace(back, channel=replace(back.channel, snr_threshold=threshold)) == cfg


def test_latency_model_must_be_the_enum():
    with pytest.raises(ConfigError, match="latency_model must be 'total' or 'wireless_only'"):
        replace(default_config(), latency_model="total")


def test_parse_missing_key_names_it():
    text = config_text(default_config())
    text = "\n".join(l for l in text.splitlines() if not l.startswith("bandwidth_hz"))
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("missing key: bandwidth_hz" in e for e in exc.value.errors)


def test_parse_unknown_key_rejected():
    text = config_text(default_config()) + "mystery_knob = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("unknown key: mystery_knob" in e for e in exc.value.errors)


def test_parse_duplicate_key_rejected():
    text = config_text(default_config()) + "num_miners = 4\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("duplicate key" in e for e in exc.value.errors)


def test_parse_bad_number_rejected():
    text = config_text(default_config()).replace("distance_m = 50.0", "distance_m = fifty")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("distance_m" in e for e in exc.value.errors)


def test_parse_skips_blank_lines_and_comments():
    cfg = default_config(num_miners=7)
    lines = config_text(cfg).splitlines()
    text = "\n".join(["# a full-line comment", "", *lines[:3], "   ", "  # indented", *lines[3:]])
    assert parse_config_text(text) == parse_config_text(config_text(cfg))


def test_parse_line_without_equals_names_its_line():
    lines = config_text(default_config()).splitlines()
    text = "\n".join([*lines[:2], "num_miners 10", *lines[2:]])
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.errors == ["line 3: expected 'key = value', got 'num_miners 10'"]


def test_parse_latency_model_values():
    text = config_text(default_config())
    assert parse_config_text(text).latency_model is LatencyModel.TOTAL
    text2 = text.replace("latency_model = total", "latency_model = wireless_only")
    assert parse_config_text(text2).latency_model is LatencyModel.WIRELESS_ONLY
    text3 = text.replace("latency_model = total", "latency_model = sometimes")
    with pytest.raises(ConfigError):
        parse_config_text(text3)


def test_parse_config_validates():
    text = config_text(default_config()).replace("num_miners = 10", "num_miners = 0")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("num_miners" in e for e in exc.value.errors)


def test_config_digest_stability():
    a = config_digest(default_config())
    b = config_digest(default_config())
    c = config_digest(default_config(num_miners=11))
    assert a == b
    assert a != c
    assert len(a) == 12


def test_config_keeps_derived_scalars_outside_its_fields():
    cfg = default_config()
    assert cfg.derived == derive(cfg.channel, cfg.miner)
    assert config_digest(cfg) == "4b96d8473f27"
    assert "derived" not in repr(cfg)
    assert "derived" not in [f.name for f in fields(cfg)]
    copy = pickle.loads(pickle.dumps(cfg))  # as a pool worker receives it
    assert copy == cfg and hash(copy) == hash(cfg) and copy.derived == cfg.derived
    moved = replace(cfg, miner=replace(cfg.miner, lambda0=0.08))
    assert moved.derived.compute_rate == 2 * cfg.derived.compute_rate


# the digest's SHA-256 sources in the order it tries them: the builtin _sha2 (3.12+) or
# _sha256 (3.10, 3.11), then hashlib (OpenSSL) only where neither exists
DIGEST_MODULES = ("_sha2", "_sha256", "hashlib")


@pytest.mark.parametrize("source", DIGEST_MODULES)
def test_config_digest_is_hashlib_sha256_from_every_source(monkeypatch, source):
    configs = [default_config()]
    configs += [
        default_config(miners, tx_power_w=tx, snr_fraction=fraction)
        for miners in (2, 5, 10, 20)
        for tx in (0.1, 1.0)
        for fraction in (0.5, 1.0)
    ]
    configs += [cfg for _, _, cfg in preset_jobs("fig4")]
    expected = []
    for cfg in configs:
        blob = ";".join(f"{k}={v!r}" for k, v in model._field_items(cfg))
        expected.append(hashlib.sha256(blob.encode()).hexdigest()[:12])
    for earlier in DIGEST_MODULES[: DIGEST_MODULES.index(source)]:
        monkeypatch.setitem(sys.modules, earlier, None)  # its import now raises ImportError
    try:
        module = importlib.import_module(source)
    except ImportError:
        pytest.skip(f"this interpreter has no {source}")
    calls = []
    sha256 = module.sha256

    def counting(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(module, "sha256", counting)
    assert [config_digest(cfg) for cfg in configs] == expected
    assert len(calls) == len(configs) == 37


def test_config_digest_covers_tolerances():
    base = default_config()
    digests = {
        config_digest(base),
        config_digest(replace(base, quadrature_tol=1e-11)),
    }
    assert len(digests) == 2


def _bumped(obj, name):
    """``obj`` with the one field ``name`` (dotted when nested) moved to its next value."""
    if "." in name:
        outer, inner = name.split(".", 1)
        return replace(obj, **{outer: _bumped(getattr(obj, outer), inner)})
    value = getattr(obj, name)
    if isinstance(value, LatencyModel):
        new = next(m for m in LatencyModel if m is not value)
    elif isinstance(value, int):
        new = value + 1
    else:
        new = math.nextafter(value, math.inf)  # one ulp
    return replace(obj, **{name: new})


def test_config_digest_covers_every_field_exactly():
    base = default_config()
    names = []
    for f in fields(base):
        value = getattr(base, f.name)
        names += [f"{f.name}.{g.name}" for g in fields(value)] if is_dataclass(value) else [f.name]
    assert len(names) == 15
    digests = {config_digest(_bumped(base, name)) for name in names}
    assert len(digests) == len(names) and config_digest(base) not in digests
    # a file round trip moves the linear threshold by a few ulps: a different config
    a = default_config(num_miners=2)
    b = parse_config_text(config_text(a))
    assert a.channel.snr_threshold != b.channel.snr_threshold
    assert config_digest(a) != config_digest(b)


def test_channel_params_frozen():
    ch = default_config().channel
    with pytest.raises(Exception):
        ch.tx_power_w = 5.0
    assert isinstance(ch, ChannelParams)
