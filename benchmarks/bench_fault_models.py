"""Extension study (beyond the paper): sensitivity of the outcome
distribution to the fault model.

The paper injects single bit flips. Multi-bit upsets and stuck-at faults
are the obvious next questions; this bench measures how the crash/SDC
split moves as the fault model widens, using LLFI on one benchmark.
"""

from conftest import SEED, TRIALS, once

from repro.experiments.report import format_table
from repro.fi import CampaignConfig, LLFIInjector, run_campaign

MODELS = [
    ("1-bit flip", "bitflip"),
    ("2-bit flip", "multibit-2"),
    ("4-bit flip", "multibit-4"),
    ("stuck-at-0", "stuck-at-0"),
    ("stuck-at-1", "stuck-at-1"),
]


def test_fault_model_sensitivity(benchmark, workloads):
    built = workloads["libquantumm"]
    llfi = LLFIInjector(built.module)

    def run():
        results = {}
        for label, model in MODELS:
            config = CampaignConfig(trials=TRIALS, seed=SEED,
                                    fault_model=model)
            results[label] = run_campaign(llfi, "all", config)
        return results

    results = once(benchmark, run)

    rows = []
    for label, _ in MODELS:
        r = results[label]
        rows.append([label,
                     f"{100 * r.crash.value:.0f}%",
                     f"{100 * r.sdc.value:.0f}%",
                     f"{100 * r.benign.value:.0f}%",
                     r.activation_rate.percent()])
    print()
    print(format_table(
        ["fault model", "crash", "SDC", "benign", "activation"],
        rows, title=f"Fault-model sensitivity (libquantumm, LLFI 'all', "
                    f"{TRIALS} trials)"))

    one_bit = results["1-bit flip"]
    four_bit = results["4-bit flip"]
    # Wider faults can only make things worse (or equal, within noise).
    assert four_bit.benign.value <= one_bit.benign.value + 0.15
    # Stuck-at faults sometimes write the value that was already there, so
    # their activation cannot exceed the flips'.
    assert results["stuck-at-0"].activation_rate.value <= 1.0
