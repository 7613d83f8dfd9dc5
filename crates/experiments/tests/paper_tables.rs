//! The paper-figure tables of EXPERIMENTS.md are pinned to the code:
//! every measured cell of Fig. 7(a), 7(b), 8 and 9, printed the way the
//! figure binaries print it (`{:.3}`), must equal what the figure
//! functions compute at `TRIALS`. The `paper` columns are values read
//! off the published plots and are not compared. A deliberate model
//! change updates the doc's tables together with the code.

use darms_experiments::figures::{fig7a, fig7b, fig8, fig9, Fig7Row, TRIALS};
use darms_workload::secs;

/// The body rows of the first table after `heading` in EXPERIMENTS.md,
/// one `Vec` of trimmed cells per row.
fn doc_table(heading: &str) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let at = doc.find(heading).unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{heading}`"));
    doc[at..]
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

/// Compare the measured rows with the doc's table, ignoring its last
/// (paper) column.
fn assert_pinned(heading: &str, measured: Vec<Vec<String>>) {
    let documented: Vec<Vec<String>> = doc_table(heading)
        .into_iter()
        .map(|mut row| {
            row.pop();
            row
        })
        .collect();
    assert_eq!(measured, documented, "the `{heading}` table of EXPERIMENTS.md drifted");
}

fn fig7_cells(rows: &[Fig7Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.count.to_string(),
                secs(r.dominant),
                secs(r.secondary),
                secs(r.total()),
                secs(r.stddev),
            ]
        })
        .collect()
}

#[test]
fn fig7a_table_matches_the_doc() {
    assert_pinned("## Fig. 7(a)", fig7_cells(&fig7a(TRIALS)));
}

#[test]
fn fig7b_table_matches_the_doc() {
    assert_pinned("## Fig. 7(b)", fig7_cells(&fig7b(TRIALS)));
}

#[test]
fn fig8_table_matches_the_doc() {
    let rows = fig8(TRIALS)
        .iter()
        .map(|r| vec![r.load.to_string(), secs(r.sched_others), secs(r.service), secs(r.total())])
        .collect();
    assert_pinned("## Fig. 8", rows);
}

#[test]
fn fig9_table_matches_the_doc() {
    let rows = fig9(TRIALS).iter().map(|r| vec![r.node.to_string(), secs(r.batch)]).collect();
    assert_pinned("## Fig. 9", rows);
}
