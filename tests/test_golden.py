"""Golden SHA-256 digests of CLI artifacts.

Each command runs with the default configuration in an empty directory,
so artifact names (and the paths the manifests record) are relative.
Rerun determinism is checked by the acceptance suite; these digests pin
the bytes themselves, so a change to the numerics or to the output
formatting that moves a single bit fails here.  They were recorded with
numpy 2 on x86-64 Linux; a platform whose libm or BLAS rounds
differently may legitimately disagree on the ``orders`` artifacts.
"""

import contextlib
import hashlib
import io
import json

import pytest

from sicaoc.cli import main

COMMANDS = {
    "simulate-euler": ["simulate", "--method", "euler"],
    "simulate-rk2": ["simulate", "--method", "rk2"],
    "simulate-rk4": ["simulate", "--method", "rk4"],
    "simulate-dp45": ["simulate", "--method", "dp45"],
    "optimize-plot": ["optimize", "--plot"],
    "compare": ["compare"],
    "orders": ["orders"],
}

GOLDEN = {
    "simulate-euler": {
        "simulate_euler.csv":
            "87e5d9bdb466c93ddaa0858a50acc5b43d1583af7c6ae01588cf0dcde3a21132",
        "simulate_euler.manifest.json":
            "117bb9fa57535deaa9800a563bcc4e51760d40a63bc2177eb066de7238cd01a6",
    },
    "simulate-rk2": {
        "simulate_rk2.csv":
            "ebb86211e008b296f7f601a41e47fc6af6ebc7cabb2f37cca178c365ddf627c1",
        "simulate_rk2.manifest.json":
            "9aaba537def5e3af3b3c6359afbdfc665ff490eb21bcc01850c933b7f22d731e",
    },
    "simulate-rk4": {
        "simulate_rk4.csv":
            "a2b05d8b075d3f0da41b5c6161b90dae018abb8bb27df338161a029ce1162c07",
        "simulate_rk4.manifest.json":
            "b4f52a896c3a955dd08d2fdbc23197c6f1acc5314873d575a0d9e15c5b2ef52e",
    },
    "simulate-dp45": {
        "simulate_dp45.csv":
            "fb131da15a5d0f66e0ffb11702bab68b5bf2e7ac45143a54962b9fd6be53bf7f",
        "simulate_dp45.manifest.json":
            "f1af703b39a9c9b022a6770319af43e569b3a0b9fe733252079a822f124bd7c9",
    },
    "optimize-plot": {
        "optimize.control.gp":
            "5562ee48b4c113cccf80645ce8ad4d1094ff06ce98823f6c034895663bacc99c",
        "optimize.csv":
            "2e7e7e7ff40d8fc572811ce2ff9b3b5dc647a5b07b466039c676dec615e81045",
        "optimize.manifest.json":
            "875ae2b4fdc0494dd08aab016d5c3716d8beed1932cc9a1c85495078e4287ee5",
        "optimize.states-vs-uncontrolled.gp":
            "3f329a2c4958ea66d755abc8b21e3bea9f369f3f413cfe4ecb28ca7c7a23fa29",
        "optimize.uncontrolled.csv":
            "f1abcd7ce04ff4e086bb8f5a5de744c97b9a81ffdb2242e5763edc85b9602be6",
    },
    "compare": {
        "compare_norms.csv":
            "2bb7259a09a97d8cdfca4a04ca578e584a93a2f17024b8c3151a33b2f8dce68f",
        "compare_norms.manifest.json":
            "a398eec59009680e49735b5d56ba43dfd8c857979697ddb81a6f25337398fa75",
    },
    "orders": {
        "orders.csv":
            "e9bc0ea1b3244145175541c297f65da2eae8e7a15aa7d9c4baf5120ce397b3b4",
        "orders.manifest.json":
            "4e843b3554a8e455ac6e2deec2287423362ba2979fe24ac2811ac2d8ef4ac946",
    },
}


@pytest.mark.parametrize("key", list(COMMANDS))
def test_default_artifacts_match_golden_digests(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(COMMANDS[key]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN[key]


# A non-default scenario written with integer literals wherever JSON allows
# them, so that a change in how the config is parsed, cast or serialised
# (an int horizon, an int u_max, a zero initial fraction) shows in the bytes.
CUSTOM_CONFIG = {
    "horizon": 10, "steps": 200, "params": {"beta": 2, "d": 1, "mu": 0.02},
    "initial": {"s": 0.5, "i": 0.25, "c": 0.25, "a": 0},
    "control": {"u_max": 0.4, "relaxation": 0.5, "delta_error": 0.001,
                "max_iterations": 300},
    "refinements": [50, 100, 200],
}

CUSTOM_GOLDEN = {
    "simulate-euler": {
        "simulate_euler.csv":
            "802ff1322eff0df7cb09204a7826262118f17f51dd07e23dbc5cb57f6ad89044",
        "simulate_euler.manifest.json":
            "3a13d0d10e0ae7f1003d4d2819d2ef1114978390e45eb37df6f8ad5834091db0",
    },
    "simulate-dp45": {
        "simulate_dp45.csv":
            "04c7702ddd1e41b167a30161c42dd2b0ca0547cedf6b06ec7247544fc8cd6d41",
        "simulate_dp45.manifest.json":
            "41cfca592588e857ab3346262b2490858114b607668ebc72a40f233923cd657b",
    },
    "optimize-plot": {
        "optimize.control.gp":
            "5562ee48b4c113cccf80645ce8ad4d1094ff06ce98823f6c034895663bacc99c",
        "optimize.csv":
            "22e4db8d83d3f31c4655c2fca5e1f3a6bddde48ba45473fcbeda83ab61e7384d",
        "optimize.manifest.json":
            "1736fe0e741dbb975e0551b34866e48cd296f78dbf26fec313442af069664fd2",
        "optimize.states-vs-uncontrolled.gp":
            "3f329a2c4958ea66d755abc8b21e3bea9f369f3f413cfe4ecb28ca7c7a23fa29",
        "optimize.uncontrolled.csv":
            "3bec18d131f16badd684a0b003dad44e1a68738b7696ee63cfd289936547d4cc",
    },
    "orders": {
        "orders.csv":
            "d5b804726f4553ce9b81cbff3f03465511b5ac76d71a83444a09e18cd4c538af",
        "orders.manifest.json":
            "d928828cb13a3eac142ac5da4da34efbdc5b2ca3b4b3ceec460ed1893687cf46",
    },
}


@pytest.mark.parametrize("key", list(CUSTOM_GOLDEN))
def test_custom_config_artifacts_match_golden_digests(key, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CUSTOM_CONFIG))
    work = tmp_path / "run"
    work.mkdir()
    monkeypatch.chdir(work)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(COMMANDS[key] + ["--config", str(config)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(work.iterdir())}
    assert digests == CUSTOM_GOLDEN[key]
