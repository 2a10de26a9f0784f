"""Composable adversity scenarios (message loss, churn, dynamic graphs, ...).

See :mod:`repro.scenarios.base` for the perturbation models and the
randomness discipline that keeps the serial engines and the batch kernels
bit-for-bit equivalent under every scenario, and
:mod:`repro.scenarios.registry` for the named registry behind the CLI's
``scenarios`` subcommand and ``run --scenario`` option.
"""

from repro.scenarios.base import (
    AdaptiveCrash,
    AdaptiveLoss,
    AdversarialSource,
    BurstLoss,
    ComposedScenario,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
    Scenario,
    ScenarioLike,
    SOURCE_STRATEGIES,
    TARGETED_CHURN_CRITERIA,
    TargetedChurn,
    absorbing_target,
    as_scenario,
    compose,
    scenario_source,
    select_adversarial_source,
)
from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioSpec,
    available_scenarios,
    build_scenario,
    get_scenario_spec,
    parse_scenario,
)

__all__ = [
    "Scenario",
    "MessageLoss",
    "BurstLoss",
    "NodeChurn",
    "TargetedChurn",
    "AdaptiveCrash",
    "AdaptiveLoss",
    "DynamicGraph",
    "AdversarialSource",
    "Delay",
    "ComposedScenario",
    "FamilyResampler",
    "ScenarioLike",
    "SOURCE_STRATEGIES",
    "TARGETED_CHURN_CRITERIA",
    "absorbing_target",
    "as_scenario",
    "compose",
    "scenario_source",
    "select_adversarial_source",
    "SCENARIOS",
    "ScenarioSpec",
    "available_scenarios",
    "build_scenario",
    "get_scenario_spec",
    "parse_scenario",
]
