//! The benchmark's own statistics: nearest-rank and Harrell–Davis
//! percentiles, the highest percentile a sample can support, geometric
//! means and ratios that keep their base. `self_test` runs at the start
//! of every benchmark run.

/// A sample needs at least this many values beyond a percentile before
/// that percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The 1-based nearest rank of the `p`th percentile in an `n`-sample
/// (the epsilon keeps `99.9 / 100 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Harrell–Davis estimate of the `p`th percentile (`0 < p < 100`) of an
/// ascending sample: the mean of every value weighted by a
/// Beta((n+1)p/100, (n+1)(1-p/100)) density over its rank, so that it moves
/// smoothly where a gap separates neighbouring values.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    const STEPS: usize = 32;
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * p / 100.0, (n + 1.0) * (1.0 - p / 100.0));
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    // Scaled by the density's peak, so that exp stays in range.
    let peak = log_density(((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9));
    let (mut total, mut weighted) = (0.0, 0.0);
    for (i, value) in sorted.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|k| {
                let x = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n;
                (log_density(x) - peak).exp()
            })
            .sum();
        total += w;
        weighted += w * value;
    }
    weighted / total
}

/// How many values of an `n`-sample lie strictly beyond its nearest-rank
/// `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] values of an `n`-sample beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median, p90 and the highest supported tail of one timing sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// `None` when p90 would have fewer than [`MIN_BEYOND`] values beyond
    /// it: such a run is too short to report a tail.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || beyond(values.len(), 90.0) < MIN_BEYOND {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len())?;
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail_p,
            tail: percentile(&sorted, tail_p),
        })
    }
}

/// Median of a non-empty sample (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values, so that a microsecond cell weighs
/// as much as a second-long one.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One block of requests: their latencies and the wall time it took.
pub struct Block {
    pub ms: Vec<f64>,
    pub seconds: f64,
}

/// A run's request metrics: percentiles and geometric mean over a sample
/// of latencies, and a throughput. The p50 and p90 are Harrell–Davis
/// estimates, because a few values stand apart near each percentile when
/// the requests mix kinds (cells of a ladder, hits and misses).
#[derive(Debug, Clone)]
pub struct RequestMetrics {
    pub p50: f64,
    pub p90: f64,
    pub geomean: f64,
    pub per_s: f64,
    /// The sample the percentiles come from: its count and supported tail.
    pub sample: Summary,
    /// How the sample was formed, for the notes.
    pub basis: String,
}

impl RequestMetrics {
    /// Every request of one block, pooled. `None` below a p90.
    pub fn pooled(block: &Block) -> Option<RequestMetrics> {
        let sample = Summary::of(&block.ms)?;
        let mut sorted = block.ms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(RequestMetrics {
            p50: harrell_davis(&sorted, 50.0),
            p90: harrell_davis(&sorted, 90.0),
            geomean: geomean(&block.ms),
            per_s: block.ms.len() as f64 / block.seconds,
            sample,
            basis: format!("{} requests pooled", block.ms.len()),
        })
    }

    /// Cells repeated once per round: each cell's latency is its median
    /// over the rounds, so a burst of host noise in one round does not
    /// move it, and the percentiles and geometric mean are taken over the
    /// cells, so each cell weighs the same. The throughput is the median
    /// round's. `None` unless the cells support a p90.
    pub fn per_cell(cells: &[Vec<f64>], rounds: &[Block]) -> Option<RequestMetrics> {
        let medians: Vec<f64> = cells
            .iter()
            .filter(|times| !times.is_empty())
            .map(|times| median(times))
            .collect();
        let sample = Summary::of(&medians)?;
        let mut sorted = medians.clone();
        sorted.sort_by(f64::total_cmp);
        let per_s: Vec<f64> = rounds
            .iter()
            .map(|r| r.ms.len() as f64 / r.seconds)
            .collect();
        let reps = cells.iter().map(Vec::len).min().unwrap_or(0);
        Some(RequestMetrics {
            p50: harrell_davis(&sorted, 50.0),
            p90: harrell_davis(&sorted, 90.0),
            geomean: geomean(&medians),
            per_s: median(&per_s),
            sample,
            basis: format!(
                "{} cells, each its median of >= {reps} rounds",
                medians.len()
            ),
        })
    }
}

/// A ratio that keeps its base, so it is always printed with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub part: u64,
    pub base: u64,
}

impl Ratio {
    /// `part / base`, and 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ({}/{})", self.value(), self.part, self.base)
    }
}

/// Checks the functions above against hand-computed answers.
pub fn self_test() -> Result<(), String> {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    check(percentile(&hundred, 50.0) == 50.0, "p50 of 1..=100 is 50")?;
    check(percentile(&hundred, 90.0) == 90.0, "p90 of 1..=100 is 90")?;
    check(
        percentile(&[7.0], 99.0) == 7.0,
        "any percentile of one value",
    )?;
    check(beyond(100, 90.0) == 10, "10 of 100 values lie beyond p90")?;
    // Over 1..=n the Harrell-Davis weights put the pth percentile at
    // n * p / 100 + 1/2.
    check(
        (harrell_davis(&hundred, 50.0) - 50.5).abs() < 1e-6,
        "Harrell-Davis p50 of 1..=100 is 50.5",
    )?;
    check(
        (harrell_davis(&hundred, 90.0) - 90.5).abs() < 1e-3,
        "Harrell-Davis p90 of 1..=100 is 90.5",
    )?;
    check(
        (harrell_davis(&[7.0], 90.0) - 7.0).abs() < 1e-12
            && (harrell_davis(&[3.0; 5], 50.0) - 3.0).abs() < 1e-12,
        "Harrell-Davis of a constant sample",
    )?;
    check(tail_percentile(100) == Some(90.0), "100 values support p90")?;
    check(
        tail_percentile(99) == Some(50.0),
        "99 values do not support p90",
    )?;
    check(
        tail_percentile(1000) == Some(99.0),
        "1000 values support p99",
    )?;
    check(
        tail_percentile(10_000) == Some(99.9),
        "10000 values support p99.9",
    )?;
    check(tail_percentile(19).is_none(), "19 values support no tail")?;
    check(
        Summary::of(&hundred[..99]).is_none(),
        "p90 needs 100 values",
    )?;
    let s = Summary::of(&hundred).ok_or("summary of 100 values")?;
    check(
        s.n == 100 && s.p50 == 50.0 && s.p90 == 90.0,
        "summary of 1..=100",
    )?;
    check(s.tail_p == 90.0 && s.tail == 90.0, "tail of 1..=100 is p90")?;
    check(
        (geomean(&[1e-3, 1e3]) - 1.0).abs() < 1e-12,
        "geomean of 1e-3, 1e3",
    )?;
    check(
        (geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12,
        "geomean of 2, 8",
    )?;
    check(median(&[3.0, 1.0, 2.0]) == 2.0, "median of 3 values")?;
    check(median(&[4.0, 1.0, 3.0, 2.0]) == 2.5, "median of 4 values")?;
    let block = |shift: f64, seconds: f64| Block {
        ms: hundred.iter().map(|v| v + shift).collect(),
        seconds,
    };
    let p = RequestMetrics::pooled(&block(0.0, 4.0)).ok_or("a pooled block")?;
    check(
        (p.p50 - 50.5).abs() < 1e-6
            && (p.p90 - 90.5).abs() < 1e-3
            && p.per_s == 25.0
            && p.sample.n == 100,
        "pooled percentiles and throughput of 1..=100 in 4 s",
    )?;
    // Cell i ran as i + 1, i + 1001 and i + 2 in three rounds: its median is i + 2.
    let rounds = [block(0.0, 4.0), block(1000.0, 8.0), block(1.0, 2.0)];
    let cells: Vec<Vec<f64>> = (0..100)
        .map(|i| rounds.iter().map(|r| r.ms[i]).collect())
        .collect();
    let c = RequestMetrics::per_cell(&cells, &rounds).ok_or("cells over three rounds")?;
    check(
        (c.p50 - 51.5).abs() < 1e-6 && (c.p90 - 91.5).abs() < 1e-3 && c.sample.n == 100,
        "percentiles over each cell's median",
    )?;
    check(c.per_s == 25.0, "the throughput is the median round's")?;
    let shifted: Vec<f64> = hundred.iter().map(|v| v + 1.0).collect();
    check(
        (c.geomean - geomean(&shifted)).abs() < 1e-12,
        "geomean over each cell's median",
    )?;
    let short = Block {
        ms: vec![1.0; 99],
        seconds: 1.0,
    };
    check(
        RequestMetrics::pooled(&short).is_none(),
        "a p90 needs 100 values",
    )?;
    check(
        RequestMetrics::per_cell(&vec![vec![1.0]; 99], &[short]).is_none(),
        "a p90 needs 100 cells",
    )?;
    let r = Ratio { part: 3, base: 4 };
    check(r.value() == 0.75, "3/4")?;
    check(r.to_string() == "0.7500 (3/4)", "ratios print their base")?;
    check(Ratio { part: 0, base: 0 }.value() == 0.0, "empty base")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn statistics_self_test_passes() {
        super::self_test().unwrap();
    }
}
