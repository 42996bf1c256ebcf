//! Beyond the paper (§6 future work): parallel workloads with read-shared
//! data, comparing all four organizations.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::report::{f4, pct, Table};
use nuca_core::experiment::run_profiles;
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::stats::speedup;
use telemetry::collector;
use tracegen::spec::SpecApp;
use tracegen::workload::parallel_workload;

fn main() {
    let nuca_bench::SimArgs { exp, tele, .. } = nuca_bench::parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("parallel: {e}");
            std::process::exit(2)
        });
    tele.install();
    let machine = MachineConfig::baseline();
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: exp.seed },
    ];
    let mut t = Table::new(
        "Extension — parallel workloads (shared read region), harmonic IPC",
        &[
            "workload", "private", "shared", "adaptive", "coop", "adp/priv",
        ],
    );
    let workloads = [
        (SpecApp::Galgel, 0.4, 2048),
        (SpecApp::Twolf, 0.3, 1024),
        (SpecApp::Equake, 0.5, 4096),
        (SpecApp::Gzip, 0.2, 512),
    ];
    // Flatten the (workload x organization) grid into independent cells
    // for the deterministic runner.
    let built: Vec<_> = workloads
        .iter()
        .map(|&(app, frac, kb)| parallel_workload(app, machine.cores, frac, kb, exp.seed))
        .collect();
    let n = built.len() * orgs.len();
    let results = simcore::parallel::run_indexed(exp.jobs, n, |i| {
        let (profiles, forwards) = &built[i / orgs.len()];
        let (result, trace) =
            run_profiles(&machine, orgs[i % orgs.len()], profiles, forwards, &exp)
                .expect("parallel workload builds");
        (result.hmean_ipc, trace)
    });
    // Submit in index order after the parallel map joined, keeping the
    // exported file identical for every `--jobs` value.
    let mut hmeans = Vec::with_capacity(results.len());
    for (h, trace) in results {
        hmeans.push(h);
        if let Some(trace) = trace {
            collector::submit(trace);
        }
    }
    for ((app, frac, kb), h) in workloads.into_iter().zip(hmeans.chunks(orgs.len())) {
        t.row(&[
            &format!(
                "4x {} ({:.0}% shared reads, {} KiB)",
                app.name(),
                frac * 100.0,
                kb
            ),
            &f4(h[0]),
            &f4(h[1]),
            &f4(h[2]),
            &f4(h[3]),
            &pct(speedup(h[2], h[0])),
        ]);
    }
    t.print();
    println!();
    println!("The paper's §6 hypothesis: the adaptive scheme remains effective for");
    println!("parallel workloads. Sharing organizations deduplicate the common region.");

    tele.export("parallel").expect("telemetry export");
}
