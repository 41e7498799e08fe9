"""Golden SHA-256 digests of CLI artifacts and of each command's stdout.

Each command runs with the default configuration in an empty directory,
so artifact names (and the paths the manifests record) are relative.
It runs through ``cli_run.run_cli``, which also checks its exit contract.
The digest of what the command prints is recorded under the key
``"stdout"``.
Rerun determinism is checked by the acceptance suite; these digests pin
the bytes themselves, so a change to the numerics or to the output
formatting that moves a single bit fails here.  They were recorded with
numpy 2 on x86-64 Linux.  The ``simulate-dp45``, ``compare`` and
``orders`` artifacts come from the Dormand-Prince reference, whose
weighted stage sums are BLAS calls and whose step-size controller takes
``ratio ** -0.2`` from libm, so a platform whose BLAS or libm rounds
differently may legitimately disagree on those three.
"""

import hashlib

import pytest

from cli_run import run_cli

COMMANDS = {
    "simulate-euler": ["simulate", "--method", "euler"],
    "simulate-rk2": ["simulate", "--method", "rk2"],
    "simulate-rk4": ["simulate", "--method", "rk4"],
    "simulate-rk4-plot": ["simulate", "--method", "rk4", "--plot"],
    "simulate-dp45": ["simulate", "--method", "dp45"],
    "optimize-plot": ["optimize", "--plot"],
    "optimize-verbatim-plot": ["optimize", "--adjoint", "verbatim", "--plot"],
    "compare": ["compare"],
    "orders": ["orders"],
}

GOLDEN = {
    "simulate-euler": {
        "simulate_euler.csv":
            "87e5d9bdb466c93ddaa0858a50acc5b43d1583af7c6ae01588cf0dcde3a21132",
        "simulate_euler.manifest.json":
            "117bb9fa57535deaa9800a563bcc4e51760d40a63bc2177eb066de7238cd01a6",
        "stdout":
            "7193b44ed338abb271502778177f46a1a21245730199c3b136c65a2ff68005c4",
    },
    "simulate-rk2": {
        "simulate_rk2.csv":
            "ebb86211e008b296f7f601a41e47fc6af6ebc7cabb2f37cca178c365ddf627c1",
        "simulate_rk2.manifest.json":
            "9aaba537def5e3af3b3c6359afbdfc665ff490eb21bcc01850c933b7f22d731e",
        "stdout":
            "f13236c0ab6bf178178a4fdb6708365c0dfa83cd9eea96c6bc7510dc700da2bc",
    },
    "simulate-rk4": {
        "simulate_rk4.csv":
            "a2b05d8b075d3f0da41b5c6161b90dae018abb8bb27df338161a029ce1162c07",
        "simulate_rk4.manifest.json":
            "b4f52a896c3a955dd08d2fdbc23197c6f1acc5314873d575a0d9e15c5b2ef52e",
        "stdout":
            "74bb92520c6dce2cd2014e8fac5c27965a55dd653128dafe5f1139f87dfdd03b",
    },
    "simulate-rk4-plot": {
        "simulate_rk4.csv":
            "a2b05d8b075d3f0da41b5c6161b90dae018abb8bb27df338161a029ce1162c07",
        "simulate_rk4.manifest.json":
            "814eff1edb0f6fd1321b7e7801f91def76e6a8659573da8b57646968d0f4d23b",
        "simulate_rk4.states.gp":
            "6d3e7b9667622ef7b51a132e746a4ca159a27588af49a80fcf4dbf2f367fd9f1",
        "stdout":
            "4be41a51c8b4e020106d4c522587e9cb4364d9fe5ac87aacb5aefc62a1919c6f",
    },
    "simulate-dp45": {
        "simulate_dp45.csv":
            "fb131da15a5d0f66e0ffb11702bab68b5bf2e7ac45143a54962b9fd6be53bf7f",
        "simulate_dp45.manifest.json":
            "f1af703b39a9c9b022a6770319af43e569b3a0b9fe733252079a822f124bd7c9",
        "stdout":
            "85439d852a487e67394b1879d8930669e25b73c1e24a22a763812b0718e348dc",
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
        "stdout":
            "bfd2c5bb38f2d43d06305f692686a3a3781fb713ca06e2473d5bfe640ce0f482",
    },
    "optimize-verbatim-plot": {
        "optimize.control.gp":
            "5562ee48b4c113cccf80645ce8ad4d1094ff06ce98823f6c034895663bacc99c",
        "optimize.csv":
            "e7915e6ccb2e2b7aabe016c121f37b16e5043c01e80633ae6571239e80821295",
        "optimize.manifest.json":
            "4fb0891f08847e002ba216dd43f68512bc35131e6d683d2978fb6139ea789ab8",
        "optimize.states-vs-uncontrolled.gp":
            "3f329a2c4958ea66d755abc8b21e3bea9f369f3f413cfe4ecb28ca7c7a23fa29",
        "optimize.uncontrolled.csv":
            "f1abcd7ce04ff4e086bb8f5a5de744c97b9a81ffdb2242e5763edc85b9602be6",
        "stdout":
            "f63cdb734ae9e53ea98e2b7674c419c7671c07926083705e444ff02923e887c2",
    },
    "compare": {
        "compare_norms.csv":
            "2bb7259a09a97d8cdfca4a04ca578e584a93a2f17024b8c3151a33b2f8dce68f",
        "compare_norms.manifest.json":
            "a398eec59009680e49735b5d56ba43dfd8c857979697ddb81a6f25337398fa75",
        "stdout":
            "8cd1bdfb12187ecf6c635b2a60c179dacdcb587477e40f889d005b33b91febcb",
    },
    "orders": {
        "orders.csv":
            "e9bc0ea1b3244145175541c297f65da2eae8e7a15aa7d9c4baf5120ce397b3b4",
        "orders.manifest.json":
            "4e843b3554a8e455ac6e2deec2287423362ba2979fe24ac2811ac2d8ef4ac946",
        "stdout":
            "fa1667f1489ce0f5a38d810a016d839431f3dea9b406e9783c0c633a9e7f7747",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv, work, doc=None) -> dict:
    """Run one command in the empty directory ``work``; digests of its files and its stdout."""
    run = run_cli(argv, doc, cwd=work)
    assert run.code == 0
    digests = {name: _sha256((work / name).read_bytes()) for name in run.files}
    digests["stdout"] = _sha256(run.out.encode("utf-8"))
    return digests


@pytest.mark.parametrize("key", list(COMMANDS))
def test_default_artifacts_match_golden_digests(key, tmp_path):
    assert run_digests(COMMANDS[key], tmp_path) == GOLDEN[key]


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
        "stdout":
            "caf46d34680d6d897cea478f2c130607626bd4698df1af8a4b1e8a7b261e3b4f",
    },
    "simulate-dp45": {
        "simulate_dp45.csv":
            "04c7702ddd1e41b167a30161c42dd2b0ca0547cedf6b06ec7247544fc8cd6d41",
        "simulate_dp45.manifest.json":
            "41cfca592588e857ab3346262b2490858114b607668ebc72a40f233923cd657b",
        "stdout":
            "efda50efca29ff4ce92bc054bdb3b7a65f6431ca2984f0f0931674273748f217",
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
        "stdout":
            "68cfee22906edda336cbf3149e6d571ca6cd1c967b3d49235404a797dafa951d",
    },
    "orders": {
        "orders.csv":
            "d5b804726f4553ce9b81cbff3f03465511b5ac76d71a83444a09e18cd4c538af",
        "orders.manifest.json":
            "d928828cb13a3eac142ac5da4da34efbdc5b2ca3b4b3ceec460ed1893687cf46",
        "stdout":
            "7576e050cb8b382b8bc3a24d32f0edc56091c927ce337e99e5a64240ca161e1f",
    },
}


@pytest.mark.parametrize("key", list(CUSTOM_GOLDEN))
def test_custom_config_artifacts_match_golden_digests(key, tmp_path):
    assert run_digests(COMMANDS[key], tmp_path, CUSTOM_CONFIG) == CUSTOM_GOLDEN[key]
