"""Workload plans: the CLI operations each workload runs, with their configs.

A plan is a list of operations. Each operation is one `ethbath.cli.main`
call: an experiment kind, a generated JSON config, the exit code the program
should return, and the name of the output check that judges it (see
checks.py). The workload seed reaches the program only through the
configs, as the config's top-level `seed`, which drives the typical
microcanonical states and the typicality samples. Every other input is
fixed, so the work done is the same for every seed.
"""

from __future__ import annotations

OMEGA0 = 1.525
XX = (("x", 1, "x"),)

# eth binning per bath size for the small chains; the windows are wide
# enough that every table holds its min_states at the betas used below
SMALL_ETH = {
    6: {"window": 4.0, "min_states": 15},
    7: {"window": 4.0, "min_states": 20},
    8: {"window": 3.0, "min_states": 40},
    9: {"window": 3.0, "min_states": 40},
}
SMALL_FREQ_BIN = {"chaotic": 0.2, "integrable": 0.4}


def config(L, preset, seed, *, kappa=0.15, terms=XX, state=None, grid=(40.0, 0.5),
           eth=None, **extra):
    cfg = {
        "system": {"omega0": OMEGA0},
        "bath": {"L": L, "preset": preset},
        "coupling": {"kappa": kappa, "terms": [list(t) for t in terms]},
        "state": {"kind": "eigenstate", "beta": 0.0, "deltaE": 0.4, **(state or {})},
        "grid": {"t_max": grid[0], "dt": grid[1]},
        "seed": seed,
    }
    if eth is not None:
        cfg["eth"] = eth
    cfg.update(extra)
    return cfg


def op(name, kind, cfg, check, expect=(0,), stray_file=False, rerun=False,
       known_fault=False):
    """One operation. `expect` holds the exit codes the program may return;
    `stray_file` puts a file the run does not write into --out beforehand;
    `rerun` marks the operation for the warm-cache SHA-256 rerun check;
    `known_fault` marks an operation that fails on a known fault of the CLI."""
    return {
        "name": name, "kind": kind, "config": cfg, "check": check,
        "expect": list(expect), "stray_file": stray_file, "rerun": rerun,
        "known_fault": known_fault,
    }


def bath_eth(seed):
    """Chaotic bath at L=12 (dim 4096), read from a cache warmed in set-up."""
    eth = {"window": 0.5, "freq_bin": 0.05, "min_states": 100}
    base = dict(eth=eth)
    ops = [
        op("thermo", "thermo", config(12, "chaotic", seed, **base), "thermo", rerun=True),
        op("eth-stats", "eth-stats", config(12, "chaotic", seed, **base), "eth-stats"),
        op("rates", "rates",
           config(12, "chaotic", seed, state={"beta": 0.1}, **base), "rates"),
        op("bcf", "bcf",
           config(12, "chaotic", seed, state={"kind": "typical_mc"}, grid=(2.0, 0.02),
                  **base), "bcf"),
        op("multi-op-rates", "multi-op-rates",
           config(12, "chaotic", seed, operators=[[1, "x"], [1, "z"]], **base),
           "multi-op-rates"),
        op("typicality", "typicality",
           config(12, "chaotic", seed, grid=(20.0, 0.5), typicality={"n_samples": 20},
                  **base), "typicality"),
        op("validate", "validate", config(12, "chaotic", seed, **base), "validate"),
    ]
    # set-up fills the eigensystem cache the way a user's first run does
    prepare = [op("prepare", "thermo", config(12, "chaotic", seed, **base), "none")]
    return {"ops": ops, "prepare": prepare, "cold_cache": False}


def exact_dynamics(seed):
    """Qubit + bath up to total dim 2048, from an empty cache every round."""
    eth = {"window": 1.5, "min_states": 100}
    state = {"deltaE": 1.0}
    ops = []
    for preset in ("chaotic", "integrable"):
        ops.append(op(
            f"scaling-{preset}", "scaling",
            config(10, preset, seed, state=state, eth=eth,
                   scaling={"L_values": [6, 8, 9, 10],
                            "state_kinds": ["eigenstate", "typical_mc"],
                            "t_final": 40.0}),
            "scaling",
        ))
    ops.append(op("dynamics-chaotic", "dynamics",
                  config(10, "chaotic", seed, state=state, eth=eth), "dynamics",
                  rerun=True))
    for preset in ("chaotic", "integrable"):
        ops.append(op(f"levelstats-{preset}", "levelstats",
                      config(10, preset, seed, state=state, eth=eth), "levelstats"))
    return {"ops": ops, "prepare": [], "cold_cache": True}


def _small(L, preset, seed, **kw):
    kw.setdefault("eth", dict(SMALL_ETH[L], freq_bin=SMALL_FREQ_BIN[preset]))
    return config(L, preset, seed, **kw)


def small_batch(seed):
    """Every kind on both presets at L=6-9, with a few kappa and beta values,
    plus three operations that hit known faults of the CLI."""
    ops = []
    for p in ("chaotic", "integrable"):
        wide = {"deltaE": 1.0}
        ops += [
            op(f"thermo-8-{p}", "thermo", _small(8, p, seed), "thermo", rerun=True),
            op(f"thermo-9-{p}", "thermo", _small(9, p, seed), "thermo"),
            op(f"eth-stats-8-{p}", "eth-stats", _small(8, p, seed), "eth-stats",
               rerun=True),
            op(f"eth-stats-9-{p}", "eth-stats",
               _small(9, p, seed, state={"beta": 0.2}), "eth-stats"),
            op(f"rates-8-{p}", "rates",
               _small(8, p, seed, state={"beta": 0.1}), "rates", rerun=True),
            op(f"rates-9-{p}", "rates",
               _small(9, p, seed, kappa=0.1, state={"beta": 0.3}), "rates"),
            op(f"bcf-8-{p}", "bcf",
               _small(8, p, seed, state={"kind": "typical_mc", **wide}, grid=(5.0, 0.05)),
               "bcf", rerun=True),
            op(f"multi-op-rates-8-{p}", "multi-op-rates",
               _small(8, p, seed, operators=[[1, "x"], [1, "z"], [2, "x"]]),
               "multi-op-rates"),
            op(f"typicality-8-{p}", "typicality",
               _small(8, p, seed, state=wide, grid=(20.0, 0.5),
                      typicality={"n_samples": 10}), "typicality", rerun=True),
            op(f"validate-8-{p}", "validate", _small(8, p, seed), "validate"),
            op(f"levelstats-7-{p}", "levelstats", _small(7, p, seed), "levelstats"),
            op(f"dynamics-8-{p}", "dynamics", _small(8, p, seed, state=wide), "dynamics",
               rerun=True),
            op(f"dynamics-6-typical-{p}", "dynamics",
               _small(6, p, seed, kappa=0.25, state={"kind": "typical_mc", **wide}),
               "dynamics"),
            op(f"scaling-{p}", "scaling",
               _small(8, p, seed, state=wide,
                      scaling={"L_values": [6, 7, 8],
                               "state_kinds": ["eigenstate", "typical_mc"],
                               "t_final": 40.0}),
               "scaling", rerun=True),
        ]
    ops += [
        op("validate-weak-kappa", "validate", _small(8, "chaotic", seed, kappa=1e-9),
           "validate-weak"),
        op("dynamics-long", "dynamics",
           _small(6, "chaotic", seed, grid=(2000.0, 1.0)), "dynamics"),
    ]
    # known faults; their inputs do not depend on the seed
    ops += [
        op("fault-sz-coupling", "dynamics",
           _small(7, "chaotic", 0, terms=(("z", 1, "x"),)), "fault-sz-coupling",
           expect=(0, 2), known_fault=True),
        op("fault-t-final", "scaling",
           _small(6, "chaotic", 0, scaling={"L_values": [6], "t_final": 50.0}),
           "none", expect=(2,), known_fault=True),
        op("fault-stray-file", "rates",
           _small(6, "chaotic", 0, eth={"window": 4.0, "freq_bin": 0.2,
                                        "min_states": 10000}),
           "fault-stray-file", expect=(3,), stray_file=True, known_fault=True),
    ]
    return {"ops": ops, "prepare": [], "cold_cache": True}


WORKLOADS = {
    "bath-eth": bath_eth,
    "exact-dynamics": exact_dynamics,
    "small-batch": small_batch,
}
