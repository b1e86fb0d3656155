"""What several test modules share: the checkout, its tools, the normalized presets, and
constants and strategies of the float ranges they draw from."""
import importlib.util
import os
from pathlib import Path

from hypothesis import strategies as st

from omnidris.rate import ReducedParams
from omnidris.scenario import NORMALIZED_COMBOS

ROOT = Path(__file__).resolve().parents[1]

#: The float spacing at 1.
EPS = 2.0**-52

#: The reference room's channel gain, frozen from a 40-digit evaluation of the gain product at
#: r=1, eta=0.5, A_o=0.04, A_pd=4e-4, d=1.52/2.03, angles 45/10/17.95/29.58 deg, T=g=1.
REFERENCE_GAIN = 1.5409187756393058e-7

#: psi = (M L)^2 for the link counts M L = 1, 2, 4 and 8.
HARDWARE_PSI = st.sampled_from([1.0, 4.0, 16.0, 64.0])


def reduced(name: str) -> tuple[ReducedParams, float]:
    """The normalized preset ``name``: its reduced parameters and its absorbing count theta."""
    alpha, theta, xi, psi = NORMALIZED_COMBOS[name]
    return ReducedParams(alpha=alpha, psi=psi, xi=xi), theta


def load_tool(name: str):
    """``tools/<name>.py`` as a module, so that a test calls its ``main(argv)`` in-process."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout_env() -> dict:
    """This process's environment with the checkout's ``src`` first on ``PYTHONPATH``: a fresh
    interpreter started with it imports this checkout's omnidris."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env
