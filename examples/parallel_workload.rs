//! Beyond the paper: a *parallel* workload with read-shared data.
//!
//! The paper only evaluates multiprogrammed workloads (disjoint address
//! spaces) and hypothesizes in its conclusion that the scheme "will be
//! effective also for such [parallel] workloads". This example tests the
//! hypothesis: four threads of one application read a common region on
//! top of their private working sets, and we compare the organizations.
//!
//! ```text
//! cargo run --release --example parallel_workload
//! ```

use nuca_repro::nuca_core::cmp::Cmp;
use nuca_repro::nuca_core::l3::Organization;
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::simcore::stats::speedup;
use nuca_repro::telemetry::NullSink;
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::parallel_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::baseline();
    // Four galgel threads; 40% of loads read a shared 2-MByte region.
    let (profiles, forwards) = parallel_workload(SpecApp::Galgel, 4, 0.4, 2048, 11);
    println!("workload: 4 x galgel threads, 40% of loads to a shared 2 MB region\n");

    let mut baseline = None;
    for org in [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 11 },
    ] {
        let mut cmp =
            Cmp::with_profiles_and_sink(&machine, org, &profiles, &forwards, 11, NullSink)?;
        cmp.warm(2_000_000);
        cmp.run(800_000);
        cmp.reset_stats();
        cmp.run(800_000);
        let r = cmp.snapshot();
        let base = *baseline.get_or_insert(r.hmean_ipc);
        println!(
            "{:<12} harmonic IPC {:.4} ({:+.1}% vs private)  remote hits {:>6}  misses {:>6}",
            org.label(),
            r.hmean_ipc,
            (speedup(r.hmean_ipc, base) - 1.0) * 100.0,
            r.per_core
                .iter()
                .map(|(_, s)| s.l3_remote_hits)
                .sum::<u64>(),
            r.per_core.iter().map(|(_, s)| s.l3_misses).sum::<u64>(),
        );
    }
    println!();
    println!(
        "Under private slices every thread must fetch its own copy of the shared\n\
         region from memory; the sharing organizations fetch it once and serve\n\
         neighbors at the 19-cycle latency."
    );
    Ok(())
}
