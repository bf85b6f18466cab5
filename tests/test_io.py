"""Config parsing and the typed accessors behind the CLI."""
import pytest

from inertbarrier.errors import InvalidInputError
from inertbarrier.io import (
    config_float,
    config_int,
    config_int_list,
    init_from_dict,
    parse_config,
    sim_config_from_dict,
)


def test_parse_config_strips_comments_and_blanks():
    cfg = parse_config("""
# full-line comment
n = 10     # trailing comment
T=0.5
  dt =  1e-2
""")
    assert cfg == {"n": "10", "T": "0.5", "dt": "1e-2"}


@pytest.mark.parametrize("text,frag", [
    ("bogus = 1", "unknown key"),
    ("n = 1\nn = 2", "duplicate"),
    ("just words", "key = value"),
])
def test_parse_config_rejects_malformed(text, frag):
    with pytest.raises(InvalidInputError, match=frag):
        parse_config(text)


def test_typed_accessors():
    cfg = parse_config("n = 8\nT = 1.5\nn_list = 100, 400,900")
    assert config_int(cfg, "n") == 8
    assert config_float(cfg, "T") == 1.5
    assert config_int_list(cfg, "n_list") == [100, 400, 900]
    with pytest.raises(InvalidInputError, match="missing"):
        config_float(cfg, "dt")
    with pytest.raises(InvalidInputError, match="'T'"):
        config_int(cfg, "T")  # 1.5 is not an int


@pytest.mark.parametrize("kind,params,attr", [
    ("delta", "0.5", (0.5,)),
    ("uniform", "0.0, 2.0", (0.0, 2.0)),
    ("exponential", "1.5", (1.5,)),
    ("half_normal", "0.7", (0.7,)),
])
def test_init_from_dict_kinds(kind, params, attr):
    init = init_from_dict({"init.kind": kind, "init.params": params})
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
        init_from_dict(cfg)


def test_init_from_file(tmp_path):
    p = tmp_path / "init.txt"
    p.write_text("0.5 1.0\n2.0\n")
    init = init_from_dict({"init.kind": "sample_file", "init.params": str(p)})
    assert init.kind == "sample_file"


def test_sim_config_from_dict_carries_seed():
    cfg = parse_config(
        "n = 4\nT = 0.5\ndt = 0.25\nK = 1.0\nv0 = -0.5\n"
        "init.kind = delta\ninit.params = 0.0"
    )
    sc = sim_config_from_dict(cfg, 99)
    assert (sc.n, sc.T, sc.dt, sc.K, sc.v0, sc.seed) == (4, 0.5, 0.25, 1.0, -0.5, 99)
    assert sc.init.kind == "delta"
