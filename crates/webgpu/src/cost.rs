//! AWS-style cost model for provisioning experiments.
//!
//! §II-C motivates elasticity with cost: over-provisioning for the
//! course's first week wastes money for the remaining eight. Rates are
//! deliberately round numbers — only the *ratios* between policies
//! matter for the provisioning experiment.

/// Hourly prices (USD) per node class.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// GPU worker node per hour (g2.2xlarge-era pricing).
    pub gpu_worker_hour: f64,
    /// Preemptible (spot) GPU worker node per hour — the historical
    /// ~70% discount off on-demand, bought with eviction risk.
    pub spot_worker_hour: f64,
    /// Web server node per hour.
    pub web_server_hour: f64,
    /// Database node per hour.
    pub database_hour: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gpu_worker_hour: 0.65,
            spot_worker_hour: 0.195,
            web_server_hour: 0.10,
            database_hour: 0.20,
        }
    }
}

/// Accumulated cost over a simulated course.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostReport {
    /// GPU-hours consumed.
    pub gpu_hours: f64,
    /// The subset of [`gpu_hours`](Self::gpu_hours) billed at the
    /// spot rate.
    pub spot_gpu_hours: f64,
    /// GPU-hours during which the worker actually ran jobs.
    pub busy_gpu_hours: f64,
    /// Web/database hours (fixed tier).
    pub fixed_hours: f64,
    /// Total dollars.
    pub dollars: f64,
    /// Peak fleet size observed.
    pub peak_fleet: usize,
}

impl CostReport {
    /// Fraction of paid GPU time that did useful work.
    pub fn utilization(&self) -> f64 {
        if self.gpu_hours == 0.0 {
            return 0.0;
        }
        (self.busy_gpu_hours / self.gpu_hours).min(1.0)
    }
}

/// Accumulates cost from hourly fleet samples.
#[derive(Debug)]
pub struct CostMeter {
    model: CostModel,
    report: CostReport,
}

impl CostMeter {
    /// Start metering with a price sheet.
    pub fn new(model: CostModel) -> Self {
        CostMeter {
            model,
            report: CostReport::default(),
        }
    }

    /// Record one hour with `fleet` GPU workers of which `busy_fraction`
    /// (0..=1) were busy on average, plus the fixed web/db tier.
    pub fn record_hour(&mut self, fleet: usize, busy_fraction: f64) {
        self.record_hour_mixed(fleet, 0, busy_fraction);
    }

    /// Record one hour of a class-split fleet: `on_demand` workers at
    /// full price, `spot` workers at the discounted rate, sharing one
    /// average `busy_fraction`.
    pub fn record_hour_mixed(&mut self, on_demand: usize, spot: usize, busy_fraction: f64) {
        let busy = busy_fraction.clamp(0.0, 1.0);
        let fleet = on_demand + spot;
        self.report.gpu_hours += fleet as f64;
        self.report.spot_gpu_hours += spot as f64;
        self.report.busy_gpu_hours += fleet as f64 * busy;
        self.report.fixed_hours += 1.0;
        self.report.dollars += on_demand as f64 * self.model.gpu_worker_hour
            + spot as f64 * self.model.spot_worker_hour
            + self.model.web_server_hour
            + self.model.database_hour;
        self.report.peak_fleet = self.report.peak_fleet.max(fleet);
    }

    /// Finish and take the report.
    pub fn finish(self) -> CostReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_accumulation() {
        let mut m = CostMeter::new(CostModel::default());
        m.record_hour(10, 0.5);
        m.record_hour(2, 1.0);
        let r = m.finish();
        assert_eq!(r.gpu_hours, 12.0);
        assert_eq!(r.busy_gpu_hours, 7.0);
        assert_eq!(r.peak_fleet, 10);
        let expected = 12.0 * 0.65 + 2.0 * (0.10 + 0.20);
        assert!((r.dollars - expected).abs() < 1e-9);
    }

    #[test]
    fn mixed_hours_bill_spot_at_the_discount() {
        let mut m = CostMeter::new(CostModel::default());
        m.record_hour_mixed(2, 6, 1.0);
        let r = m.finish();
        assert_eq!(r.gpu_hours, 8.0);
        assert_eq!(r.spot_gpu_hours, 6.0);
        assert_eq!(r.peak_fleet, 8);
        let expected = 2.0 * 0.65 + 6.0 * 0.195 + 0.30;
        assert!((r.dollars - expected).abs() < 1e-9);
        // The same capacity all on-demand costs strictly more.
        let mut od = CostMeter::new(CostModel::default());
        od.record_hour(8, 1.0);
        assert!(od.finish().dollars > r.dollars);
    }

    #[test]
    fn utilization_bounds() {
        let mut m = CostMeter::new(CostModel::default());
        m.record_hour(4, 2.0); // clamped to 1.0
        let r = m.finish();
        assert_eq!(r.utilization(), 1.0);
        assert_eq!(CostReport::default().utilization(), 0.0);
    }

    #[test]
    fn static_fleet_costs_more_than_scaled_for_spiky_load() {
        // The §II-C argument in numbers: a 20-worker static fleet vs a
        // fleet that follows a load of 20 for 10 hours and 2 for 90.
        let mut staticc = CostMeter::new(CostModel::default());
        let mut scaled = CostMeter::new(CostModel::default());
        for h in 0..100 {
            let load_workers = if h < 10 { 20 } else { 2 };
            staticc.record_hour(20, load_workers as f64 / 20.0);
            scaled.record_hour(load_workers, 0.9);
        }
        let s = staticc.finish();
        let d = scaled.finish();
        assert!(
            d.dollars < s.dollars / 2.0,
            "{} vs {}",
            d.dollars,
            s.dollars
        );
        assert!(d.utilization() > s.utilization());
    }
}
