"""The config format: parse_config's typed values and its rejections."""
import pytest

from inertbarrier.cli import run
from inertbarrier.errors import InvalidInputError
from inertbarrier.io import parse_config

INIT = ("init.kind", "init.params")


def init_of(cfg: dict):
    """The InitialDistribution that parse_config makes of init.* keys."""
    text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
    return parse_config(text, INIT)["init"]


def test_parse_config_strips_comments_and_blanks():
    cfg = parse_config("""
# full-line comment
n = 10     # trailing comment
T=0.5
  dt =  1e-2
""", ("n", "T", "dt"))
    assert cfg == {"n": 10, "T": 0.5, "dt": 0.01}


@pytest.mark.parametrize("text,frag", [
    ("bogus = 1", "unknown key"),
    ("n = 1\nn = 2", "duplicate"),
    ("just words", "key = value"),
])
def test_parse_config_rejects_malformed(text, frag):
    with pytest.raises(InvalidInputError, match=frag):
        parse_config(text, (), ("n",))


def test_typed_accessors():
    cfg = parse_config("n = 8\nT = 1.5\nn_list = 100, 400,900", ("n", "T"), ("n_list", "dt"))
    assert cfg == {"n": 8, "T": 1.5, "n_list": [100, 400, 900]}
    assert type(cfg["n"]) is int and type(cfg["T"]) is float
    with pytest.raises(InvalidInputError, match="missing config key 'dt'"):
        parse_config("n = 8\nT = 1.5", ("n", "T", "dt"))
    with pytest.raises(InvalidInputError, match="'T'"):
        parse_config("T = 1.5.0", ("T",))  # not a number
    with pytest.raises(InvalidInputError, match="'n'"):
        parse_config("n = 1.5", ("n",))  # not an int


@pytest.mark.parametrize("text", ["T = nan", "T = inf", "T = -inf", "T = 1e999"])
def test_non_finite_value_is_rejected(text):
    with pytest.raises(InvalidInputError, match="'T': must be finite"):
        parse_config(text, ("T",))


@pytest.mark.parametrize("kind,params,attr", [
    ("delta", "0.5", (0.5,)),
    ("uniform", "0.0, 2.0", (0.0, 2.0)),
    ("exponential", "1.5", (1.5,)),
    ("half_normal", "0.7", (0.7,)),
])
def test_init_from_dict_kinds(kind, params, attr):
    init = init_of({"init.kind": kind, "init.params": params})
    assert init.kind == kind
    assert init.params == attr


@pytest.mark.parametrize("cfg,frag", [
    ({}, "init.kind"),
    ({"init.kind": "cauchy", "init.params": "1"}, "unknown init.kind"),
    ({"init.kind": "uniform", "init.params": "1"}, "needs 2"),
    ({"init.kind": "delta", "init.params": ""}, "needs 1"),
    ({"init.kind": "delta", "init.params": "a"}, "init.params"),
    ({"init.kind": "sample_file", "init.params": ""}, "path"),
])
def test_init_from_dict_rejects(cfg, frag):
    with pytest.raises(InvalidInputError, match=frag):
        init_of(cfg)


def test_init_from_file(tmp_path):
    p = tmp_path / "init.txt"
    p.write_text("0.5 1.0\n2.0\n")
    init = init_of({"init.kind": "sample_file", "init.params": str(p)})
    assert init.kind == "sample_file"
    assert init.path == str(p)


SIM_TEXT = "n = 4\nT = 0.5\ndt = 0.25\nK = 1.0\nv0 = -0.5\ninit.kind = delta\ninit.params = 0.0\n"


def test_sim_config_from_dict_carries_seed(tmp_path, monkeypatch):
    seen = []

    def stop(config, keep=None):
        seen.append(config)
        raise InvalidInputError("stop after the config")

    monkeypatch.setattr("inertbarrier.cli.simulate", stop)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_TEXT)
    assert run(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path),
                "--quiet"]) == 1
    (sc,) = seen
    assert (sc.n, sc.T, sc.dt, sc.K, sc.v0, sc.seed) == (4, 0.5, 0.25, 1.0, -0.5, 99)
    assert sc.init.kind == "delta"


def test_non_finite_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_TEXT.replace("v0 = -0.5", "v0 = nan"))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: config key 'v0': must be finite, got nan\n"
    assert not out.exists()
