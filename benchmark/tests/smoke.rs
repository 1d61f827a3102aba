//! `benchmark --quick`: all four workloads against real `mqdiv` processes
//! plus the traced pass, at a size that finishes in about twenty seconds.
//! Builds `mqdiv` (release) first if it is not built yet, which takes longer.

use std::process::Command;

#[test]
fn quick_run_of_all_four_workloads_and_the_traced_pass() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--quick")
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{stderr}",
        out.status.code()
    );
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect();
    assert_eq!(results.len(), 4, "{stdout}");
    for line in results {
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert!(line.contains("\"failed\":0,"), "{line}");
        // Both metric sets in one run: a person's view, not the driver's.
        assert!(
            line.contains("\"cover_rows_mean\":") && line.contains("\"trace.query_op_p50_us\":")
        );
    }
    for workload in ["hot-read", "cold-solve", "ingest-repair", "routed-mix"] {
        assert!(
            stderr.contains(&format!("{workload}: traced pass:")),
            "{stderr}"
        );
    }
    assert!(
        !stdout.contains("FAILED") && !stdout.contains("PROBLEM"),
        "{stdout}"
    );
}
