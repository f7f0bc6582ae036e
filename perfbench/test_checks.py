"""Tests of the benchmark's own output checks.

Run with ``python3 -m pytest perfbench/test_checks.py`` from the
repository root.  Each planted wrong answer must fail the check, and a
second seed must change the inputs and still pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

workloads.require_source()

import checks  # noqa: E402
import provision  # noqa: E402
import served  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def served_answers(seed: int, states: int = 3, per_state: int = 40):
    """Answers as the tier would give them: the optimal path in fault
    state k, stamped with epoch 2k, from the overlay router."""
    from repro.core.routing import LiangShenRouter
    from repro.exceptions import NoPathError
    from repro.faults.injector import FaultInjector

    network = workloads.sparse_wan()
    events = served.fault_events(network, seed)
    pairs = served.all_pairs(network, seed)
    injector = FaultInjector(network)
    answers = []
    for state in range(states):
        if state:
            injector.apply(events[state - 1])
        router = LiangShenRouter(injector.network_view())
        for source, target in pairs[state * per_state : (state + 1) * per_state]:
            try:
                path = router.route(source, target).path
            except NoPathError:
                path = None
            answers.append((source, target, path, 2 * state))
    return network, events, answers


@pytest.fixture(scope="module")
def served_case():
    return served_answers(seed=11)


@pytest.fixture(scope="module")
def provision_case():
    return provision.setup(seed=11)[2]


def test_served_answers_pass(served_case):
    network, events, answers = served_case
    assert checks.check_served(network, events, answers, patches=2) == []


@pytest.mark.parametrize("plant", ["cost", "hop"])
def test_served_wrong_answer_fails(served_case, plant):
    network, events, answers = served_case
    answers = list(answers)
    if plant == "cost":
        checks.inject_cost(answers)
    else:
        checks.inject_hop(answers, workloads.K_WAVELENGTHS)
    problems = checks.check_served(network, events, answers, patches=2)
    assert len(problems) == 1


def test_served_epoch_beyond_patches_fails(served_case):
    network, events, answers = served_case
    assert checks.check_served(network, events, answers, patches=1)


def test_provisioning_replay_passes(provision_case):
    outcomes = provision_case
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)
    assert checks.check_provisioning(checks.LiteralReplay(11), outcomes) == []


def test_provisioning_flipped_admit_fails(provision_case):
    outcomes = list(provision_case)
    checks.inject_flip(outcomes, start=100)
    assert checks.check_provisioning(checks.LiteralReplay(11), outcomes)


def test_second_seed_changes_inputs_and_passes(served_case, provision_case):
    network, events, answers = served_answers(seed=12)
    assert events != served_case[1]
    assert [a[:2] for a in answers] != [a[:2] for a in served_case[2]]
    assert checks.check_served(network, events, answers, patches=2) == []

    outcomes = provision.setup(seed=12)[2]
    assert outcomes != provision_case
    assert checks.check_provisioning(checks.LiteralReplay(12), outcomes) == []


def _run(*args, cwd=os.path.dirname(HERE)):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


@pytest.mark.parametrize(
    "workload, plant",
    [("served_steady", "cost"), ("served_churn", "hop"), ("provision_dynamic", "flip")],
)
def test_planted_wrong_answer_fails_the_run(workload, plant):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--inject", plant)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_run_without_program_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", "provision_dynamic", "--seed", "1", "--seconds", "1", cwd=str(tmp_path)
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
