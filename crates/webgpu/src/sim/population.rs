//! Student population models.
//!
//! Two linked models:
//!
//! * [`CohortParams`] / [`simulate_cohort`] — the **completion
//!   funnel**: registrants → starters → weekly survival → completions
//!   → proctored certificates. Calibrations for the three Coursera
//!   offerings regenerate Table I's completion rates (7.40%, 3.14%,
//!   3.15%) and certificate counts.
//! * [`LoadModel`] — **active students per hour** over the course: an
//!   enrollment ramp and exponential decay, a weekly rush peaking the
//!   day before the Thursday deadline (the paper's Wednesday spikes),
//!   a diurnal cycle, and Poisson noise. Regenerates Figure 1's shape:
//!   peak ≈112 in week 2, troughs ≈8 late in the course.

use libwb::rng::SplitMix64;
use wb_server::DeviceKind;

/// Hours per week.
pub const WEEK_HOURS: usize = 7 * 24;

/// Parameters of one year's cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortParams {
    /// Offering year (labeling only).
    pub year: u32,
    /// Registered users.
    pub registered: u32,
    /// Fraction of registrants who attempt the first lab.
    pub start_fraction: f64,
    /// Weekly probability an active student continues.
    pub weekly_continue: f64,
    /// Graded weeks (labs) a student must survive to complete.
    pub weeks: u32,
    /// Fraction of completers who sit the proctored quiz
    /// (certificates were only offered from 2014 on).
    pub certificate_fraction: f64,
}

impl CohortParams {
    /// Calibrated to Table I, 2013: 36,896 registered, 2,729
    /// completions (7.40%), no certificate track.
    pub fn year_2013() -> Self {
        CohortParams {
            year: 2013,
            registered: 36_896,
            start_fraction: 0.46,
            weekly_continue: 0.795,
            weeks: 9,
            certificate_fraction: 0.0,
        }
    }

    /// Calibrated to Table I, 2014: 33,818 registered, 1,061
    /// completions (3.14%), 286 certificates.
    pub fn year_2014() -> Self {
        CohortParams {
            year: 2014,
            registered: 33_818,
            start_fraction: 0.40,
            weekly_continue: 0.726,
            weeks: 9,
            certificate_fraction: 0.27,
        }
    }

    /// Calibrated to Table I, 2015: 35,940 registered, 1,141
    /// completions (3.15%), 442 certificates.
    pub fn year_2015() -> Self {
        CohortParams {
            year: 2015,
            registered: 35_940,
            start_fraction: 0.40,
            weekly_continue: 0.727,
            weeks: 9,
            certificate_fraction: 0.39,
        }
    }
}

/// Outcome of simulating one cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSummary {
    /// Offering year.
    pub year: u32,
    /// Registered users (echoed).
    pub registered: u32,
    /// Students who attempted the first lab.
    pub started: u32,
    /// Students active in each week (length `weeks`).
    pub weekly_active: Vec<u32>,
    /// Students who survived every week.
    pub completions: u32,
    /// Proctored certificates issued.
    pub certificates: u32,
}

impl CohortSummary {
    /// Completions / registered.
    pub fn completion_rate(&self) -> f64 {
        self.completions as f64 / self.registered as f64
    }
}

/// Run the per-student survival simulation.
pub fn simulate_cohort(params: &CohortParams, seed: u64) -> CohortSummary {
    let mut rng = SplitMix64::new(seed);
    let mut weekly_active = vec![0u32; params.weeks as usize];
    let mut started = 0u32;
    let mut completions = 0u32;
    let mut certificates = 0u32;
    for _ in 0..params.registered {
        if !rng.bool(params.start_fraction) {
            continue;
        }
        started += 1;
        let mut alive = true;
        for (w, slot) in weekly_active.iter_mut().enumerate() {
            if w > 0 && !rng.bool(params.weekly_continue) {
                alive = false;
                break;
            }
            *slot += 1;
        }
        if alive {
            completions += 1;
            if params.certificate_fraction > 0.0 && rng.bool(params.certificate_fraction) {
                certificates += 1;
            }
        }
    }
    CohortSummary {
        year: params.year,
        registered: params.registered,
        started,
        weekly_active,
        completions,
        certificates,
    }
}

/// Hourly active-student load over a course (Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadModel {
    /// Course length in days (Feb 8 – Apr 15 2015 is 67).
    pub days: usize,
    /// Day-of-week of day 0 (0 = Sunday; Feb 8 2015 was a Sunday).
    pub start_dow: usize,
    /// Peak scale: expected active students at the week-2 Wednesday
    /// evening spike.
    pub peak_active: f64,
    /// Weekly exponential decay of participation after week 2.
    pub weekly_decay: f64,
    /// Late-course floor of the weekly base (the course never quite
    /// empties — the paper reports ~200 users/day at the end).
    pub base_floor: f64,
}

impl Default for LoadModel {
    /// Calibrated to Figure 1's annotations: 112 active students at
    /// the Feb 18 (Wednesday, week 2) peak, 8 on April 9.
    fn default() -> Self {
        LoadModel {
            days: 67,
            start_dow: 0,
            peak_active: 112.0,
            weekly_decay: 0.40,
            base_floor: 6.0,
        }
    }
}

impl LoadModel {
    /// Expected (noise-free) active students at an hour offset.
    pub fn expected_active(&self, hour: usize) -> f64 {
        let day = hour / 24;
        let week = day / 7;
        let dow = (self.start_dow + day) % 7;
        let hod = hour % 24;
        // Enrollment ramp: week 0 builds up, week 1 peaks; exponential
        // decay afterwards toward the floor.
        let base = match week {
            0 => 0.55 + 0.35 * (day as f64 / 7.0),
            1 => 1.0,
            w => (1.0f64 * (-self.weekly_decay * (w as f64 - 1.0)).exp()).max(0.0),
        };
        // Weekly rush toward the Thursday deadline: Friday after a
        // deadline is the trough; Wednesday is the spike; Thursday
        // (deadline day until the evening cutoff) stays high.
        let weekly = match dow {
            3 => 1.0,  // Wednesday: the spike the paper highlights
            4 => 0.8,  // Thursday (deadline day)
            2 => 0.55, // Tuesday ramp
            1 => 0.35,
            0 => 0.3,
            5 => 0.18, // Friday post-deadline trough
            _ => 0.22, // Saturday
        };
        // Diurnal: quiet 2am–8am, busiest evenings (course audience is
        // global but US-evening dominated).
        let diurnal =
            0.35 + 0.65 * (0.5 - 0.5 * (std::f64::consts::TAU * (hod as f64 - 3.0) / 24.0).cos());
        (self.peak_active * base * weekly * diurnal).max(0.0) + self.base_floor * diurnal * 0.3
    }

    /// The full hourly series with Poisson noise.
    pub fn hourly_series(&self, seed: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        (0..self.days * 24)
            .map(|h| poisson(&mut rng, self.expected_active(h)))
            .collect()
    }

    /// Day-of-week (0 = Sunday) of an hour offset.
    pub fn dow(&self, hour: usize) -> usize {
        (self.start_dow + hour / 24) % 7
    }
}

/// Summary statistics of an hourly series, matching the figure's
/// annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Maximum hourly count and its hour offset.
    pub peak: (u32, usize),
    /// Minimum *daily peak* and its day (quiet-day measure — an empty
    /// 4am hour is not what the figure annotates).
    pub min_daily_peak: (u32, usize),
    /// For each day, the maximum hourly count.
    pub daily_peaks: Vec<u32>,
    /// Count of weekly spikes landing on each day-of-week.
    pub spike_dow_histogram: [u32; 7],
}

/// Compute summary statistics for a series from a model.
pub fn load_stats(model: &LoadModel, series: &[u32]) -> LoadStats {
    let days = series.len() / 24;
    let mut daily_peaks = Vec::with_capacity(days);
    for d in 0..days {
        daily_peaks.push(*series[d * 24..(d + 1) * 24].iter().max().unwrap_or(&0));
    }
    let (peak_hour, peak) = series
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(h, &v)| (h, v))
        .unwrap_or((0, 0));
    let (min_day, min_peak) = daily_peaks
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| v)
        .map(|(d, &v)| (d, v))
        .unwrap_or((0, 0));
    // Weekly spikes: the day with the highest daily peak within each
    // full week.
    let mut hist = [0u32; 7];
    for w in 0..days / 7 {
        let window = &daily_peaks[w * 7..(w + 1) * 7];
        let (best_day, _) = window
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .expect("non-empty week");
        let dow = (model.start_dow + w * 7 + best_day) % 7;
        hist[dow] += 1;
    }
    LoadStats {
        peak: (peak, peak_hour),
        min_daily_peak: (min_peak, min_day),
        daily_peaks,
        spike_dow_histogram: hist,
    }
}

/// Sample how a login reaches the site — §II-B: "around 2% of student
/// logins to WebGPU are from tablets and smartphones".
pub fn sample_device(rng: &mut SplitMix64) -> DeviceKind {
    let x = rng.f64();
    if x < 0.013 {
        DeviceKind::Tablet
    } else if x < 0.02 {
        DeviceKind::Phone
    } else {
        DeviceKind::Desktop
    }
}

/// Poisson sampler (Knuth for small λ, normal approximation above).
fn poisson(rng: &mut SplitMix64, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let sample = lambda + lambda.sqrt() * normal(rng);
        return sample.round().max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut SplitMix64) -> f64 {
    let u1: f64 = rng.range(f64::MIN_POSITIVE..1.0);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CohortParams {
        /// Expected completion rate under the survival model.
        fn expected_completion_rate(&self) -> f64 {
            self.start_fraction * self.weekly_continue.powi(self.weeks as i32 - 1)
        }
    }

    #[test]
    fn cohort_2013_matches_table1() {
        let s = simulate_cohort(&CohortParams::year_2013(), 1);
        let rate = s.completion_rate();
        assert!(
            (rate - 0.074).abs() < 0.012,
            "2013 completion rate {rate} should be near 7.4%"
        );
        assert_eq!(s.certificates, 0, "no certificate track in 2013");
    }

    #[test]
    fn cohort_2014_matches_table1() {
        let s = simulate_cohort(&CohortParams::year_2014(), 2);
        assert!(
            (s.completion_rate() - 0.0314).abs() < 0.008,
            "2014 rate {}",
            s.completion_rate()
        );
        // 286 certificates ± sampling noise.
        assert!(
            (s.certificates as f64 - 286.0).abs() < 90.0,
            "certificates {}",
            s.certificates
        );
    }

    #[test]
    fn cohort_2015_matches_table1() {
        let s = simulate_cohort(&CohortParams::year_2015(), 3);
        assert!(
            (s.completion_rate() - 0.0315).abs() < 0.008,
            "2015 rate {}",
            s.completion_rate()
        );
        assert!(
            (s.certificates as f64 - 442.0).abs() < 120.0,
            "certificates {}",
            s.certificates
        );
    }

    #[test]
    fn weekly_active_is_monotone_decreasing() {
        let s = simulate_cohort(&CohortParams::year_2015(), 4);
        assert!(s.weekly_active.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(s.weekly_active[0], s.started);
        assert_eq!(*s.weekly_active.last().unwrap(), s.completions);
    }

    #[test]
    fn expected_rate_formula_matches_calibration() {
        for p in [
            CohortParams::year_2013(),
            CohortParams::year_2014(),
            CohortParams::year_2015(),
        ] {
            let target = match p.year {
                2013 => 0.074,
                2014 => 0.0314,
                _ => 0.0315,
            };
            assert!(
                (p.expected_completion_rate() - target).abs() < 0.005,
                "{}: {}",
                p.year,
                p.expected_completion_rate()
            );
        }
    }

    #[test]
    fn load_peak_is_week2_wednesday() {
        let m = LoadModel::default();
        let series = m.hourly_series(42);
        let stats = load_stats(&m, &series);
        let (peak, hour) = stats.peak;
        assert!((90..=135).contains(&peak), "peak {peak} should be near 112");
        assert_eq!(m.dow(hour), 3, "peak lands on a Wednesday");
        let day = hour / 24;
        assert!((7..14).contains(&day), "peak in week 2 (day {day})");
    }

    #[test]
    fn load_trough_is_late_and_small() {
        let m = LoadModel::default();
        let series = m.hourly_series(42);
        let stats = load_stats(&m, &series);
        let (min_peak, day) = stats.min_daily_peak;
        assert!(min_peak <= 20, "late-course days quiet, got {min_peak}");
        assert!(day > 40, "quietest day comes late (day {day})");
    }

    #[test]
    fn weekly_spikes_land_on_wednesdays() {
        let m = LoadModel::default();
        let series = m.hourly_series(7);
        let stats = load_stats(&m, &series);
        let wednesdays = stats.spike_dow_histogram[3];
        let total: u32 = stats.spike_dow_histogram.iter().sum();
        assert!(
            wednesdays * 2 > total,
            "most weekly spikes on Wednesday: {:?}",
            stats.spike_dow_histogram
        );
    }

    #[test]
    fn device_mix_is_about_two_percent_mobile() {
        let mut rng = SplitMix64::new(5);
        let n = 100_000;
        let mobile = (0..n)
            .filter(|_| !matches!(sample_device(&mut rng), DeviceKind::Desktop))
            .count();
        let frac = mobile as f64 / n as f64;
        assert!((frac - 0.02).abs() < 0.004, "mobile fraction {frac}");
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = SplitMix64::new(6);
        for lambda in [0.5, 4.0, 80.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda) as u64).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.15 + 0.05,
                "λ={lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn series_is_deterministic_per_seed() {
        let m = LoadModel::default();
        assert_eq!(m.hourly_series(9), m.hourly_series(9));
        assert_ne!(m.hourly_series(9), m.hourly_series(10));
    }
}
