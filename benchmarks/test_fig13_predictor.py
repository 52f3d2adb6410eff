"""Fig 13: the NN CMF predictor swept over prediction leads."""

from repro import constants
from repro.core.prediction import sweep_leads
from repro.core.report import ReportRow, format_table


def test_fig13_predictor(benchmark, canonical_windows):
    positives, negatives = canonical_windows

    def sweep():
        return sweep_leads(positives, negatives)

    evaluations = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_lead = {e.lead_h: e.report for e in evaluations}

    print(f"\n{'lead':>6}  {'accuracy':>8}  {'precision':>9}  {'recall':>7}  "
          f"{'F1':>6}  {'FPR':>6}")
    for evaluation in evaluations:
        report = evaluation.report
        print(
            f"{evaluation.lead_h:>5.1f}h  {report.accuracy:>8.3f}  "
            f"{report.precision:>9.3f}  {report.recall:>7.3f}  "
            f"{report.f1:>6.3f}  {report.false_positive_rate:>6.3f}"
        )

    rows = [
        ReportRow("Fig 13", "accuracy at 6 h lead",
                  constants.PREDICTOR_ACCURACY_6H, by_lead[6.0].accuracy),
        ReportRow("Fig 13", "accuracy at 30 min lead",
                  constants.PREDICTOR_ACCURACY_30MIN, by_lead[0.5].accuracy),
        ReportRow("Fig 13", "F1 at 30 min lead",
                  constants.PREDICTOR_ACCURACY_30MIN, by_lead[0.5].f1),
        ReportRow("Sec VI-B", "FPR at 6 h lead",
                  constants.PREDICTOR_FPR_6H, by_lead[6.0].false_positive_rate),
        ReportRow("Sec VI-B", "FPR at 30 min lead",
                  constants.PREDICTOR_FPR_30MIN, by_lead[0.5].false_positive_rate),
    ]
    print("\n" + format_table(rows, "Fig 13 — predictor performance"))

    # Shape assertions: high accuracy improving as the CMF approaches.
    assert 0.78 < by_lead[6.0].accuracy < 0.98
    assert by_lead[0.5].accuracy > 0.90
    assert by_lead[0.5].accuracy >= by_lead[6.0].accuracy
    assert by_lead[0.5].false_positive_rate <= by_lead[6.0].false_positive_rate
    assert by_lead[0.5].false_positive_rate < 0.08
