"""Tests for the claims ledger."""

from repro.experiments.claims import CLAIMS, ClaimResult, verify_claims
from repro.workloads.profiles import ExperimentProfile

TINY = ExperimentProfile(
    name="tiny",
    graph_sizes=(100, 250),
    user_counts=(2, 4),
    multiuser_graph_size=80,
    distinct_graphs=2,
)


class TestLedgerStructure:
    def test_claims_catalogue_is_well_formed(self):
        ids = [claim_id for claim_id, _, _ in CLAIMS]
        assert len(ids) == len(set(ids)), "duplicate claim ids"
        assert len(CLAIMS) == 8
        for claim_id, statement, check in CLAIMS:
            assert claim_id and statement
            assert callable(check)

    def test_ledger_runs_on_tiny_profile(self):
        ledger = verify_claims(
            TINY,
            single_user_repetitions=1,
            multiuser_repetitions=1,
            timing_repeats=1,
        )
        assert len(ledger) == len(CLAIMS)
        for result in ledger:
            assert isinstance(result, ClaimResult)
            assert result.detail  # every verdict carries evidence
        # Structural claims must hold even at tiny scales; the statistical
        # ordering claims need the quick profile's sizes and repetitions
        # (the bench suite checks those) and are not asserted here.
        by_id = {r.claim_id: r for r in ledger}
        assert by_id["table1-reduction"].passed
        assert by_id["fig3-5-growth"].passed


class TestClaimPredicates:
    """Unit-test the predicates against synthetic measurements."""

    def make_energy_rows(self, totals: dict[tuple[str, int], float]):
        from repro.experiments.figures import EnergyRow

        return [
            EnergyRow(
                algorithm=algorithm,
                scale=scale,
                local_energy=value * 0.8,
                transmission_energy=value * 0.2,
                total_energy=value,
                total_time=value,
                offloaded_functions=1,
            )
            for (algorithm, scale), value in totals.items()
        ]

    def test_ours_best_total_predicate(self):
        from repro.experiments.claims import _Measurements, _claim_ours_best_total_single

        rows = self.make_energy_rows(
            {
                ("spectral", 100): 1.0,
                ("maxflow", 100): 2.0,
                ("kl", 100): 3.0,
                ("spectral", 200): 2.0,
                ("maxflow", 200): 4.0,
                ("kl", 200): 5.0,
            }
        )
        m = _Measurements(table1=[], single_user=rows, multi_user=[], timing=[])
        passed, _ = _claim_ours_best_total_single(m)
        assert passed

        losing = self.make_energy_rows(
            {
                ("spectral", 100): 9.0,
                ("maxflow", 100): 2.0,
                ("kl", 100): 3.0,
                ("spectral", 200): 9.0,
                ("maxflow", 200): 4.0,
                ("kl", 200): 5.0,
            }
        )
        m = _Measurements(table1=[], single_user=losing, multi_user=[], timing=[])
        passed, _ = _claim_ours_best_total_single(m)
        assert not passed

    def test_spark_gap_predicate(self):
        from repro.experiments.claims import _Measurements, _claim_spark_closes_gap
        from repro.experiments.timing import TimingRow

        timing = [
            TimingRow("spectral-power", 100, 10.0, 1),
            TimingRow("maxflow", 100, 1.0, 1),
            TimingRow("kl", 100, 1.2, 1),
            TimingRow("spectral-spark", 100, 2.0, 1),
        ]
        m = _Measurements(table1=[], single_user=[], multi_user=[], timing=timing)
        passed, detail = _claim_spark_closes_gap(m)
        assert passed
        assert "10.00s -> 2.00s" in detail

        timing[-1] = TimingRow("spectral-spark", 100, 9.0, 1)
        passed, _ = _claim_spark_closes_gap(m)
        assert not passed
