//! Multiprogrammed workload construction (Section 3 of the paper).
//!
//! "In each experiment, four randomly picked applications are run in
//! parallel. Each application is randomly forwarded between 0.5 and 1.5
//! billion instructions and then we simulate two hundred million cycles."
//!
//! [`WorkloadPool::random_mixes`] reproduces exactly that protocol
//! (deterministically, from a seed); the simulated cycle count is chosen
//! by the experiment runner.

use std::sync::Arc;

use simcore::rng::SimRng;

use crate::spec::SpecApp;

/// One multiprogrammed experiment: which application runs on each core and
/// how far it was fast-forwarded before measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    /// The application assigned to each core, in core order.
    pub apps: Vec<SpecApp>,
    /// Instructions fast-forwarded per core (0.5–1.5 billion).
    pub forwards: Vec<u64>,
}

impl Mix {
    /// A human-readable label such as `"ammp+art+mcf+gzip"`.
    pub fn label(&self) -> String {
        self.apps
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Number of cores the mix occupies.
    pub fn cores(&self) -> usize {
        self.apps.len()
    }

    /// The per-core profiles, borrowed from the static presets.
    pub fn profiles(&self) -> Vec<&'static crate::profile::AppProfile> {
        self.apps.iter().map(|a| a.profile()).collect()
    }
}

/// Factory for the randomized experiment sets of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadPool;

impl WorkloadPool {
    /// Lower bound of the random fast-forward, in instructions.
    pub const FORWARD_MIN: u64 = 500_000_000;
    /// Upper bound of the random fast-forward, in instructions.
    pub const FORWARD_MAX: u64 = 1_500_000_000;

    /// Draws `n` mixes of `cores` applications each from `pool`
    /// (with replacement, as the paper's three-`ammp`-plus-`wupwise`
    /// experiment shows duplicates occur), each with an independent
    /// random fast-forward.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty or `cores` is zero.
    pub fn random_mixes(pool: &[SpecApp], cores: usize, n: usize, seed: u64) -> Vec<Mix> {
        assert!(!pool.is_empty(), "application pool must be nonempty");
        assert!(cores > 0, "mixes need at least one core");
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|_| {
                let apps = (0..cores)
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                let forwards = (0..cores)
                    .map(|_| rng.range(Self::FORWARD_MIN, Self::FORWARD_MAX))
                    .collect();
                Mix { apps, forwards }
            })
            .collect()
    }

    /// All single-application "mixes" (one app replicated on every core),
    /// used to classify applications for Figure 5 and to sweep cache
    /// sensitivity for Figure 3.
    pub fn homogeneous(app: SpecApp, cores: usize, seed: u64) -> Mix {
        let mut rng = SimRng::seed_from(seed ^ app as u64);
        Mix {
            apps: vec![app; cores],
            forwards: (0..cores)
                .map(|_| rng.range(Self::FORWARD_MIN, Self::FORWARD_MAX))
                .collect(),
        }
    }
}

/// A *parallel* workload: `threads` instances of one application that,
/// in addition to their private working sets, read a common shared
/// region — the setting the paper defers to future work ("we hypothesize
/// that the new scheme will be effective also for such workloads").
///
/// Returns one profile handle per thread plus matching fast-forward
/// counts. All threads run the *same* program, so the handles share one
/// [`Arc`] allocation instead of cloning the profile per thread.
///
/// # Example
///
/// ```
/// use tracegen::workload::parallel_workload;
/// use tracegen::spec::SpecApp;
/// let (profiles, forwards) = parallel_workload(SpecApp::Galgel, 4, 0.4, 2048, 7);
/// assert_eq!(profiles.len(), 4);
/// assert!(profiles[0].shared_read_frac > 0.0);
/// assert_eq!(forwards.len(), 4);
/// ```
pub fn parallel_workload(
    app: SpecApp,
    threads: usize,
    shared_read_frac: f64,
    shared_kb: u64,
    seed: u64,
) -> (Vec<Arc<crate::profile::AppProfile>>, Vec<u64>) {
    let mut rng = SimRng::seed_from(seed ^ 0x9a7a_11e1);
    let mut profile = app.profile().clone();
    profile.shared_read_frac = shared_read_frac;
    profile.shared_kb = shared_kb;
    let forwards = (0..threads)
        .map(|_| rng.range(WorkloadPool::FORWARD_MIN, WorkloadPool::FORWARD_MAX))
        .collect();
    let shared = Arc::new(profile);
    (vec![shared; threads], forwards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_per_seed() {
        let pool = SpecApp::intensive_pool();
        let a = WorkloadPool::random_mixes(&pool, 4, 10, 42);
        let b = WorkloadPool::random_mixes(&pool, 4, 10, 42);
        assert_eq!(a, b);
        let c = WorkloadPool::random_mixes(&pool, 4, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mixes_have_right_shape() {
        let pool = SpecApp::intensive_pool();
        let mixes = WorkloadPool::random_mixes(&pool, 4, 25, 7);
        assert_eq!(mixes.len(), 25);
        for m in &mixes {
            assert_eq!(m.cores(), 4);
            assert_eq!(m.forwards.len(), 4);
            for f in &m.forwards {
                assert!((WorkloadPool::FORWARD_MIN..WorkloadPool::FORWARD_MAX).contains(f));
            }
            for a in &m.apps {
                assert!(pool.contains(a));
            }
        }
    }

    #[test]
    fn duplicates_can_occur() {
        // With replacement over 16 apps, 25 mixes of 4 contain a duplicate
        // with overwhelming probability.
        let pool = SpecApp::intensive_pool();
        let mixes = WorkloadPool::random_mixes(&pool, 4, 25, 1);
        let any_dup = mixes.iter().any(|m| {
            let mut apps = m.apps.clone();
            apps.sort();
            apps.windows(2).any(|w| w[0] == w[1])
        });
        assert!(any_dup);
    }

    #[test]
    fn homogeneous_mix_replicates_app() {
        let m = WorkloadPool::homogeneous(SpecApp::Mcf, 4, 9);
        assert_eq!(m.apps, vec![SpecApp::Mcf; 4]);
        assert_eq!(m.label(), "mcf+mcf+mcf+mcf");
    }

    #[test]
    fn parallel_workload_shares_one_profile() {
        let (profiles, forwards) = parallel_workload(SpecApp::Galgel, 4, 0.4, 2048, 7);
        assert_eq!(profiles.len(), 4);
        assert_eq!(forwards.len(), 4);
        // Every thread sees the identical profile — one allocation, not
        // per-thread clones.
        for p in &profiles[1..] {
            assert!(Arc::ptr_eq(&profiles[0], p));
            assert_eq!(**p, *profiles[0]);
        }
        assert!((profiles[0].shared_read_frac - 0.4).abs() < 1e-12);
        assert_eq!(profiles[0].shared_kb, 2048);
    }

    #[test]
    fn label_joins_names() {
        let pool = [SpecApp::Ammp, SpecApp::Art];
        let mixes = WorkloadPool::random_mixes(&pool, 2, 1, 3);
        let label = mixes[0].label();
        assert!(label.contains('+'));
    }
}
