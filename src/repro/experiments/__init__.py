"""Declarative experiment definitions for every table and figure in the paper.

The scenario registry (:mod:`repro.experiments.scenarios`) describes each
figure/table as a declarative grid spec plus a post-processing hook, and
:func:`run_scenario` is the one way to run one: ``run_scenario("fig8")``
for the paper's grid, ``run_scenario(replace(get_scenario("fig8"),
methods=...))`` for a different one.  The campaign engine
(:mod:`repro.experiments.campaign`) executes one or more scenarios as a
flat, deduplicated, resumable stream of search cells.
"""

from repro.experiments.settings import ExperimentScale, get_scale, list_scales
from repro._lazy import lazy_exports

# The scenario registry and the campaign engine (and through them the
# optimizers and the search driver) load on first use, so reading a scale
# imports nothing else.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    **dict.fromkeys(
        [
            "BudgetPolicy",
            "Panel",
            "ScenarioSpec",
            "SearchCell",
            "get_scenario",
            "list_scenarios",
            "register_scenario",
            "run_scenario",
            "spec_from_grid",
        ],
        "repro.experiments.scenarios",
    ),
    **dict.fromkeys(
        ["CampaignReport", "CampaignResultsStore", "CampaignRunner"],
        "repro.experiments.campaign",
    ),
})

__all__ = [
    "ExperimentScale",
    "get_scale",
    "list_scales",
    "BudgetPolicy",
    "Panel",
    "ScenarioSpec",
    "SearchCell",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "spec_from_grid",
    "CampaignReport",
    "CampaignResultsStore",
    "CampaignRunner",
]
