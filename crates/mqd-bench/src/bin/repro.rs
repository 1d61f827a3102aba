//! `repro <id>... | all | --list [--quick] [--seed N] [--out DIR] [--scale X]`
//! — regenerates the paper's tables and figures (and the ablations and
//! extensions) from [`mqd_bench::EXPERIMENTS`], writing each report to
//! `--out` (default `reports/`). Exit status 2 on a usage error or when an
//! experiment fails.

use mqd_bench::{BenchArgs, Experiment, EXPERIMENTS};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: repro <id>... | all | --list [--quick] [--seed N] [--out DIR] [--scale X]");
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!("ids: {}", ids.join(" "));
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--list") {
        for e in EXPERIMENTS {
            println!("{}", e.id);
        }
        return;
    }
    let (args, ids) = BenchArgs::parse_from(raw).unwrap_or_else(|e| usage(&e));
    let selected: Vec<&Experiment> = match ids.as_slice() {
        [] => usage("name at least one experiment id, or `all`"),
        [all] if all == "all" => EXPERIMENTS.iter().collect(),
        ids => ids
            .iter()
            .map(|id| {
                EXPERIMENTS
                    .iter()
                    .find(|e| e.id == id)
                    .unwrap_or_else(|| usage(&format!("unknown experiment {id}")))
            })
            .collect(),
    };
    for e in selected {
        println!("\n================ {} ================", e.id);
        let written = (e.run)(&args).and_then(|report| Ok(report.write(&args.out)?));
        if let Err(err) = written {
            eprintln!("error: {}: {err}", e.id);
            std::process::exit(2);
        }
    }
}
