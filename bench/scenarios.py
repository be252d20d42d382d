"""Seeded scenario configs for the benchmark workloads.

Seed 0 gives the paper's parameters exactly. Any other seed multiplies each
coupling, rate, gap and temperature by an independent factor in
[1 - JITTER, 1 + JITTER]; step counts, sample counts and durations never
change, so every seed asks the program for the same amount of work. The
erasure bath is always configured consistently: bath_T = 1 / bath_beta, and
the initial state is the Gibbs state of the bath.
"""

from __future__ import annotations

import json
import random
from typing import Any

JITTER = 0.03

WORKLOADS = ("pump", "erase", "erase-sweep")

SWEEP_TAUS = (5.0, 10.0, 20.0)

# Step and sample counts: (paper, smoke). Smoke mode keeps the code paths and
# cuts the work, for the benchmark's own tests.
_PUMP_STEPS = {"paper": (200_000, 4001), "smoke": (2_000, 41)}  # at dt = 0.01
_ERASE_STEPS = {"paper": (20_000, 401), "smoke": (500, 26)}
_SWEEP_STEPS = {"paper": (1_500, 1501), "smoke": (500, 51)}


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def _erasure_config(rng: random.Random | None, steps: int, samples: int) -> dict[str, Any]:
    params = {"eps0": 0.4, "eps_tau": 10.0, "tau": 10.0, "gamma": 0.2, "bath_beta": 1.0}
    if rng is not None:
        for key in ("eps0", "eps_tau", "gamma", "bath_beta"):
            params[key] = _jitter(rng, params[key])
    tau = params["tau"]
    return {
        "model": "erasure",
        "model_params": params,
        "initial_state": {"kind": "gibbs", "beta": params["bath_beta"]},
        "integrator": {"dt": tau / steps, "t_end": tau, "n_samples": samples},
        "bath_T": 1.0 / params["bath_beta"],
        "beta_branch": "non-negative",
    }


def scenario(workload: str, seed: int, smoke: bool = False) -> dict[str, Any]:
    """Raw scenario config (the JSON the CLI reads) for one workload and seed."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    size = "smoke" if smoke else "paper"
    if workload == "pump":
        steps, samples = _PUMP_STEPS[size]
        params = {"omega2": 0.02, "omega": 0.01, "gamma": 0.03}
        beta0 = 30.0
        if rng is not None:
            params = {k: _jitter(rng, v) for k, v in params.items()}
            beta0 = _jitter(rng, beta0)
        return {
            "name": "pump",
            "model": "rydberg",
            "model_params": params,
            "initial_state": {"kind": "gibbs", "beta": beta0},
            "integrator": {"dt": 0.01, "t_end": steps / 100, "n_samples": samples},
            "bath_T": None,
            "beta_branch": "non-negative",
        }
    if workload == "erase":
        steps, samples = _ERASE_STEPS[size]
        return {"name": "erase", **_erasure_config(rng, steps, samples)}
    if workload == "erase-sweep":
        steps, samples = _SWEEP_STEPS[size]
        cfg = {"name": "erase-sweep", **_erasure_config(rng, steps, samples)}
        cfg["sweep"] = [
            {
                "name": f"tau={tau:g}",
                "overrides": {
                    "model_params": {"tau": tau},
                    "integrator": {"dt": tau / steps, "t_end": tau},
                },
            }
            for tau in SWEEP_TAUS
        ]
        return cfg
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def config_bytes(workload: str, seed: int, smoke: bool = False) -> bytes:
    """The generated config file's exact contents."""
    return (json.dumps(scenario(workload, seed, smoke), indent=2, sort_keys=True) + "\n").encode()
