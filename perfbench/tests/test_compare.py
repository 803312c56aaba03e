import copy

from perfbench.compare import compare, verdict_of
from perfbench.metrics import Metric, catalogue


def _result(setup_s=1.0, repeats=(0.99, 1.0, 1.01), failed=0, self_ms=100.0, tx_per_s=1000.0):
    metrics = {name: 1.0 for name in catalogue().end_to_end}
    metrics["setup_s"] = setup_s
    layers = {name: 0.0 for name in catalogue().per_layer}
    layers["crypto.sign_self_ms"] = self_ms
    return {
        "workloads": {
            "inproc_mix": {
                "end_to_end": {
                    "metrics": metrics,
                    "ops_attempted": 1000,
                    "ops_failed": failed,
                    "detail": {
                        "per_repeat": {"setup_s": list(repeats)},
                        "driver": {"driver.tx_per_s": tx_per_s},
                    },
                },
                "per_layer": {"metrics": layers},
            }
        }
    }


def test_verdicts():
    tx = Metric("tx_per_s", "1/s", "higher", 0.10)
    tight = [995.0, 1000.0, 1005.0]
    assert verdict_of(tx, 1000.0, 950.0, tight, [945.0, 950.0, 955.0]) == "ok"
    assert verdict_of(tx, 1000.0, 1500.0, tight, tight) == "ok"  # better is never worse
    assert verdict_of(tx, 1000.0, 800.0, tight, [795.0, 800.0, 805.0]) == "regressed"
    wide_a = [700.0, 1000.0, 1300.0]
    wide_b = [600.0, 800.0, 1100.0]
    assert verdict_of(tx, 1000.0, 800.0, wide_a, wide_b) == "unresolved"
    # wide but disjoint: every repeat of B is worse than every repeat of A
    assert verdict_of(tx, 1000.0, 500.0, wide_a, [300.0, 500.0, 690.0]) == "regressed"


def test_setup_has_an_absolute_floor():
    setup = Metric("setup_s", "s", "lower", 0.25)
    tight = [0.0013, 0.0013, 0.0013]
    assert verdict_of(setup, 0.0013, 0.0020, tight, [0.0020] * 3) == "ok"  # +54 %, +0.7 ms
    assert verdict_of(setup, 0.0013, 0.0400, tight, [0.0400] * 3) == "ok"  # still under the floor
    assert verdict_of(setup, 0.50, 0.70, [0.5] * 3, [0.7] * 3) == "regressed"


def test_compare_passes_equal_results_and_ranks_layer_deltas():
    a = _result()
    b = copy.deepcopy(a)
    b["workloads"]["inproc_mix"]["per_layer"]["metrics"]["crypto.sign_self_ms"] = 140.0
    b["workloads"]["inproc_mix"]["per_layer"]["metrics"]["crypto.sign_calls"] = 9000.0
    text, passed = compare(a, b)
    assert passed and text.endswith("PASS")
    assert text.index("crypto.sign_self_ms") < text.index("crypto.sign_calls")
    assert "(+40.0000)" in text


def test_compare_fails_on_regression_and_on_more_failed_ops():
    text, passed = compare(_result(), _result(setup_s=1.4, repeats=(1.39, 1.4, 1.41)))
    assert not passed and "regressed" in text and text.endswith("FAIL")
    text, passed = compare(_result(), _result(failed=3))
    assert not passed and "ops_failed/ops_attempted rose" in text


def test_a_demoted_metric_is_shown_with_its_ratio_and_never_fails_the_comparison():
    text, passed = compare(_result(), _result(tx_per_s=700.0))
    assert passed and "driver.tx_per_s" in text and "0.700" in text


def test_symmetric_mode_fails_when_either_side_is_worse():
    slow = _result(setup_s=1.4, repeats=(1.39, 1.4, 1.41))
    assert compare(slow, _result())[1]  # B better than A: fine one way
    assert not compare(slow, _result(), symmetric=True)[1]
