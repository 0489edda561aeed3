import types

import dflsim

# The run API: what a caller needs to parse a config, run it, or drive one
# seed's network round by round. Every other name lives in its own module.
RUN_API = {
    "parse_config", "load_config", "RunConfig", "ConfigError",
    "run_experiment", "RunSummary", "SimulationError",
    "NetworkState", "build_network", "run_round", "evaluate_network", "summarize",
}


def test_the_package_root_exports_exactly_the_run_api():
    public = {name for name, value in vars(dflsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == RUN_API
    assert dflsim.__version__ == "0.1.0"
