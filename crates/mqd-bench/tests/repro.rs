//! The acceptance test of the paper reproduction: every entry of
//! [`EXPERIMENTS`], run in-process with `--quick` at the default seed, must
//! write byte-for-byte what the 19 per-figure binaries it replaced wrote.
//!
//! [`DIGESTS`] holds `mqd_core::wire::fnv1a` of each report file as written
//! by those binaries at commit `eba0429` (`run_all --quick`), the last
//! commit that had them. For the twelve deterministic experiments that is
//! the file itself; for the seven that report wall-clock time, the cells of
//! the [`TIMED`] columns were emptied first, so post counts, sizes,
//! `identical`, `result` and delivery counts are pinned too. A digest
//! changes only when an algorithm, a generator or the RNG changes on
//! purpose: regenerate `reports/` with `repro all`, re-check the shapes
//! EXPERIMENTS.md states, and update the table from the test's own output.

use std::collections::BTreeSet;

use mqd_bench::{BenchArgs, EXPERIMENTS};
use mqd_core::wire::fnv1a;

const ENGINES: &[&str] = &[
    "StreamScan",
    "StreamScan+",
    "StreamGreedySC",
    "StreamGreedySC+",
];

/// Wall-clock columns, by experiment id.
const TIMED: &[(&str, &[&str])] = &[
    ("fig13", &["scan_us", "scanplus_us", "greedy_us"]),
    ("fig14", ENGINES),
    ("fig15", ENGINES),
    ("ablation_greedy_heap", &["lazy_us", "scanmax_us"]),
    ("opt_feasibility", &["wall_ms"]),
    ("ext_geo", &["greedy_us", "sweep_us"]),
    ("ext_multiuser", &["posts_per_sec"]),
];

/// `(file name, fnv1a of its bytes with the TIMED cells emptied)`.
const DIGESTS: &[(&str, u64)] = &[
    ("table1.md", 0xae67d9f3eb41dbfa),
    ("table1_0.csv", 0x0c5eb63012209468),
    ("table2.md", 0x2143f709e06994b0),
    ("table2_0.csv", 0xb20da25739e7144c),
    ("fig06.md", 0xb438fdbe96413236),
    ("fig06_0.csv", 0x6e7403ef7e988207),
    ("fig06_1.csv", 0x0d0f15a4734896ec),
    ("fig07.md", 0x876ce34b99042d41),
    ("fig07_0.csv", 0x476cd5215d5bebb5),
    ("fig08.md", 0x2e7dfb369d1f7731),
    ("fig08_0.csv", 0x35f939031d3f8c36),
    ("fig08_1.csv", 0x63e8153f6fe66677),
    ("fig09.md", 0x8400b92b962a28da),
    ("fig09_0.csv", 0xf953089d7cd3cbcd),
    ("fig09_1.csv", 0x35a585d7c91f7ccf),
    ("fig09_2.csv", 0xf0d944c4f95a1e68),
    ("fig10.md", 0x1386a04ce0c842d3),
    ("fig10_0.csv", 0x06995ab437cada59),
    ("fig10_1.csv", 0xe1099386256e616d),
    ("fig10_2.csv", 0x63caf34a6fabfdef),
    ("fig11.md", 0xbe34979f0579be3f),
    ("fig11_0.csv", 0x8b022d1bfb532823),
    ("fig12.md", 0x4dea6c8f11f5a630),
    ("fig12_0.csv", 0xd3b32dab71d5a1e1),
    ("fig12_1.csv", 0x6f682fd93df136ce),
    ("fig13.md", 0x0e97cb4a453f4609),
    ("fig13_0.csv", 0x5d07c1a0c2ec1011),
    ("fig13_1.csv", 0x5d07c1a0c2ec1011),
    ("fig13_2.csv", 0x5d07c1a0c2ec1011),
    ("fig14.md", 0x893673f740a475ba),
    ("fig14_0.csv", 0xa14cf68e64139b82),
    ("fig14_1.csv", 0xa14cf68e64139b82),
    ("fig14_2.csv", 0xa14cf68e64139b82),
    ("fig15.md", 0x2d5294c177a16ef9),
    ("fig15_0.csv", 0xff12bc83898d4dc9),
    ("fig15_1.csv", 0xff12bc83898d4dc9),
    ("fig15_2.csv", 0xff12bc83898d4dc9),
    ("ablation_greedy_heap.md", 0x4811c5c4a25fae59),
    ("ablation_greedy_heap_0.csv", 0xd438448fad05dcc7),
    ("ablation_scan_order.md", 0x401c167ff26714ad),
    ("ablation_scan_order_0.csv", 0x1dd1c6da65681c7f),
    ("ablation_variable_lambda.md", 0xb694e79640897dd4),
    ("ablation_variable_lambda_0.csv", 0xa5ea5f3ee4753637),
    ("ablation_variable_lambda_1.csv", 0x7ddf8bef2ddb9a4c),
    ("opt_feasibility.md", 0xf70235335c38334d),
    ("opt_feasibility_0.csv", 0xe8b3b8d03b2d70d2),
    ("ext_geo.md", 0xcafe5158ce31d8d1),
    ("ext_geo_0.csv", 0x886c15b09ecacdd0),
    ("ext_multiuser.md", 0x132ab799359b04ab),
    ("ext_multiuser_0.csv", 0xe5544da3bfbba01b),
    ("ext_adaptive_lambda.md", 0x733c5ad4ec1dd1fe),
    ("ext_adaptive_lambda_0.csv", 0xa9ac34eea5b4a70a),
    ("ext_adaptive_lambda_1.csv", 0xe6f57e4dde847fa0),
];

#[test]
fn every_experiment_writes_what_its_binary_wrote() {
    let args = BenchArgs {
        quick: true,
        ..BenchArgs::default()
    };
    let mut written = Vec::new();
    let mut wrong = Vec::new();
    for e in EXPERIMENTS {
        let mut report = (e.run)(&args).unwrap_or_else(|err| panic!("{}: {err}", e.id));
        assert_eq!(report.id, e.id, "a report is filed under its experiment id");
        let timed = TIMED
            .iter()
            .find(|(id, _)| *id == e.id)
            .map_or(&[][..], |t| t.1);
        for table in &mut report.tables {
            for (c, header) in table.headers.iter().enumerate() {
                if timed.contains(&header.as_str()) {
                    table.rows.iter_mut().for_each(|row| row[c].clear());
                }
            }
        }
        for (name, contents) in report.files() {
            let got = fnv1a(contents.as_bytes());
            if !DIGESTS.contains(&(name.as_str(), got)) {
                wrong.push(format!("(\"{name}\", {got:#018x}),"));
            }
            written.push(name);
        }
    }
    assert!(
        wrong.is_empty(),
        "files that differ from the reference (with their new digests):\n{}",
        wrong.join("\n")
    );

    // Exactly the reference file set, which is exactly what `reports/` holds.
    let expected: Vec<&str> = DIGESTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(written, expected);
    let reports = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports");
    // Files only: `mqdiv oracle` may leave a `reports/oracle/` directory.
    let on_disk: BTreeSet<String> = std::fs::read_dir(reports)
        .expect("reports/ is committed")
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().is_file())
        .map(|entry| entry.file_name().into_string().unwrap())
        .collect();
    assert_eq!(on_disk, written.into_iter().collect::<BTreeSet<_>>());
}

#[test]
fn ids_are_unique_and_in_design_section_6_order() {
    let design = include_str!("../../../DESIGN.md");
    let start = design.find("## 6. Experiment index").expect("DESIGN.md §6");
    let section = &design[start..];
    let section = &section[..section.find("\n## 7.").expect("DESIGN.md §7")];
    let mut from = 0;
    for e in EXPERIMENTS {
        let at = section[from..]
            .find(&format!("`{}`", e.id))
            .unwrap_or_else(|| panic!("{} is missing from DESIGN.md §6 or out of order", e.id));
        from += at + 1;
    }
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    assert_eq!(EXPERIMENTS.len(), 19);
}
