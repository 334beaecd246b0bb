//! EXPERIMENTS.md's claims about `exp ablations`, checked against
//! `results/exp_ablations.csv` — the file `scripts/check_results.sh` proves
//! the tree writes. A change that erases an ablation's effect, or turns it
//! round, fails here instead of only changing a number a person reads.
//!
//! The CSV has one row per ablation (1–5) and variant, in the order its table
//! prints them; variant 0 of ablations 1–3 is Libra's default configuration
//! and variant 0 of ablation 4 is the coverage scheduler. A column an
//! ablation does not measure reads `NaN`.

/// `results/exp_ablations.csv`: its header and its rows.
struct Ablations {
    header: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Ablations {
    fn load() -> Self {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/exp_ablations.csv");
        let text = std::fs::read_to_string(path).expect("read results/exp_ablations.csv");
        let mut lines = text.lines();
        let header = lines.next().expect("a header line").split(',').map(String::from).collect();
        let cell = |c: &str| c.parse().unwrap_or_else(|_| panic!("not a number: {c:?}"));
        let rows = lines.map(|line| line.split(',').map(cell).collect()).collect();
        Ablations { header, rows }
    }

    /// The rows of ablation `ablation`, in variant order.
    fn rows(&self, ablation: f64) -> Vec<&[f64]> {
        let rows: Vec<&[f64]> =
            self.rows.iter().filter(|r| r[0] == ablation).map(Vec::as_slice).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[1], i as f64, "ablation {ablation}: variants out of order");
        }
        assert!(!rows.is_empty(), "ablation {ablation} has no rows");
        rows
    }

    /// Column `name` of ablation `ablation`, one value per variant.
    fn column(&self, ablation: f64, name: &str) -> Vec<f64> {
        let c = self.header.iter().position(|h| h == name).expect("a column of the CSV");
        self.rows(ablation).iter().map(|r| r[c]).collect()
    }
}

/// Whether `values[0]` is strictly below every other value.
fn first_is_least(values: &[f64]) -> bool {
    values[1..].iter().all(|&v| values[0] < v)
}

/// Whether `values[0]` is strictly above every other value.
fn first_is_most(values: &[f64]) -> bool {
    values[1..].iter().all(|&v| values[0] > v)
}

#[test]
fn one_baseline_fills_the_first_row_of_ablations_one_to_three() {
    let csv = Ablations::load();
    let baseline = |a| -> Vec<u64> { csv.rows(a)[0][2..].iter().map(|v| v.to_bits()).collect() };
    assert_eq!(baseline(1.0), baseline(2.0), "rows 1,0 and 2,0 differ");
    assert_eq!(baseline(1.0), baseline(3.0), "rows 1,0 and 3,0 differ");
}

#[test]
fn longest_lived_first_loses_the_fewest_loans() {
    let expired = Ablations::load().column(1.0, "loans_expired");
    assert_eq!(expired.len(), 3, "longest-lived, FIFO, shortest-lived");
    assert!(first_is_least(&expired), "loans expired by pool order: {expired:?}");
}

#[test]
fn continuous_acceleration_beats_one_shot() {
    let csv = Ablations::load();
    let (speedup, p99) = (csv.column(2.0, "mean_speedup"), csv.column(2.0, "p99_s"));
    assert_eq!(p99.len(), 2, "continuous, one-shot");
    assert!(speedup[0] > speedup[1], "mean speedup, continuous vs one-shot: {speedup:?}");
    assert!(p99[0] < p99[1], "P99, continuous vs one-shot: {p99:?}");
}

#[test]
fn no_headroom_trips_the_safeguard_most_and_has_the_lowest_tail() {
    let csv = Ablations::load();
    let (trips, p99) = (csv.column(3.0, "safeguard_triggers"), csv.column(3.0, "p99_s"));
    assert_eq!(p99.len(), 5, "headroom 1.0, 1.1, 1.2, 1.3, 1.5");
    assert!(first_is_most(&trips), "safeguard trips by headroom: {trips:?}");
    assert!(first_is_least(&p99), "P99 by headroom: {p99:?}");
}

#[test]
fn coverage_loses_fewer_loans_than_volume_only() {
    let expired = Ablations::load().column(4.0, "loans_expired");
    assert_eq!(expired.len(), 2, "coverage, volume-only");
    assert!(expired[0] < expired[1], "loans expired, coverage vs volume-only: {expired:?}");
}

#[test]
fn the_greedy_gap_is_a_percentage_its_worst_case_bounds() {
    let csv = Ablations::load();
    let (mean, worst) = (csv.column(5.0, "gap_mean_pct"), csv.column(5.0, "gap_worst_pct"));
    assert_eq!(mean.len(), 1, "one row");
    assert!(0.0 <= mean[0] && mean[0] <= worst[0], "mean gap {mean:?}, worst {worst:?}");
}
