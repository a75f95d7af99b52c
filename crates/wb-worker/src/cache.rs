//! The worker's instantiation of the generic submission cache.
//!
//! `wb-cache` sits below this crate and is generic over the grade
//! value; here it is pinned to [`DatasetOutcome`] and given a weigher
//! so the LRU byte budget reflects what an outcome actually holds
//! (log text, timing report, mismatch list).

use crate::job::DatasetOutcome;
use std::sync::Arc;
use wb_cache::CacheConfig;

/// The cluster-wide cache type shared by every worker node.
pub type SubmissionCache = wb_cache::SubmissionCache<DatasetOutcome>;

/// Approximate resident size of a grade outcome in bytes. The fixed
/// term covers the struct itself plus the cost counters; the variable
/// terms cover the heap-owned text and mismatch list.
fn dataset_outcome_weight(outcome: &DatasetOutcome) -> usize {
    let check = outcome.check.as_ref().map_or(0, |c| {
        48 + c.mismatches.len() * std::mem::size_of::<libwb::check::Mismatch>()
            + c.shape_error.as_ref().map_or(0, String::len)
    });
    let error = outcome.error.as_ref().map_or(0, |e| 32 + e.message.len());
    192 + outcome.name.len() + outcome.log_text.len() + outcome.timing_text.len() + check + error
}

/// Build a shareable submission cache for a cluster.
pub fn new_submission_cache(config: CacheConfig) -> Arc<SubmissionCache> {
    Arc::new(wb_cache::SubmissionCache::new(
        config,
        dataset_outcome_weight,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_tracks_payload_size() {
        let small = DatasetOutcome {
            name: "d".into(),
            check: None,
            error: None,
            cost: Default::default(),
            elapsed_cycles: 0,
            log_text: String::new(),
            timing_text: String::new(),
        };
        let mut big = small.clone();
        big.log_text = "x".repeat(10_000);
        assert!(dataset_outcome_weight(&big) > dataset_outcome_weight(&small) + 9_000);
    }
}
