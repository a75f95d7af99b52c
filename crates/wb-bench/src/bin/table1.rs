//! Experiment T1 — regenerate Table I: registered users, completions,
//! completion rates, and certificates for the three Coursera
//! offerings, from the cohort survival model.

use webgpu::sim::population::{simulate_cohort, CohortParams};

// The 2014 completion rate happens to be 3.14% — the paper's number,
// not an approximation of π.
#[allow(clippy::approx_constant)]
struct PaperRow {
    year: u32,
    registered: u32,
    completions: u32,
    rate_pct: f64,
    certificates: Option<u32>,
}

#[allow(clippy::approx_constant)]
fn main() {
    let paper = [
        PaperRow {
            year: 2013,
            registered: 36_896,
            completions: 2_729,
            rate_pct: 7.40,
            certificates: None,
        },
        PaperRow {
            year: 2014,
            registered: 33_818,
            completions: 1_061,
            rate_pct: 3.14,
            certificates: Some(286),
        },
        PaperRow {
            year: 2015,
            registered: 35_940,
            completions: 1_141,
            rate_pct: 3.15,
            certificates: Some(442),
        },
    ];
    let params = [
        CohortParams::year_2013(),
        CohortParams::year_2014(),
        CohortParams::year_2015(),
    ];

    println!("Table I — registered users, completion rates, certificates");
    println!("(paper value / simulated value)\n");
    println!(
        "{:<6} {:>19} {:>17} {:>17} {:>15}",
        "Year", "Registered", "Completions", "Rate", "Certificates"
    );
    let mut sim_rates = Vec::new();
    for (row, p) in paper.iter().zip(&params) {
        let s = simulate_cohort(p, row.year as u64);
        sim_rates.push(100.0 * s.completion_rate());
        println!(
            "{:<6} {:>9} / {:>7} {:>7} / {:>7} {:>7.2}% / {:>5.2}% {:>6} / {:>6}",
            row.year,
            row.registered,
            s.registered,
            row.completions,
            s.completions,
            row.rate_pct,
            100.0 * s.completion_rate(),
            row.certificates
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            if s.certificates == 0 {
                "-".to_string()
            } else {
                s.certificates.to_string()
            },
        );
    }
    println!("\nWeekly survivors (2015 cohort):");
    let s = simulate_cohort(&CohortParams::year_2015(), 2015);
    for (w, n) in s.weekly_active.iter().enumerate() {
        println!("  week {:>2}: {:>6}", w + 1, n);
    }
    println!(
        "\nShape check: completion ≈ start_fraction × continue^(weeks-1); \
the 2014 policy change (certificates, harder pace) halves the rate, \
matching the 7.4% → 3.1% drop."
    );

    // The cohort model is seeded per year, so the table and this shape
    // check are deterministic: the 2014 policy change must cut the
    // completion rate to well under 70% of the 2013 rate.
    let ratio = sim_rates[1] / sim_rates[0];
    assert!(
        ratio <= 0.7,
        "2014/2013 completion-rate ratio {ratio:.2} must be at most 0.7"
    );
}
