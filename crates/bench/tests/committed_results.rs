//! The pretty printer reproduces every committed result file byte for byte.
//!
//! The experiment binaries write `results/*.json` with
//! `serde_json::to_string_pretty`, so parsing a file and rendering the tree
//! again must give back the exact committed text. This pins the printer's
//! layout (indentation, separators, empty containers, float spelling)
//! against real output rather than hand-written snippets.

use serde_json::Value;
use std::path::Path;

/// Result files whose bytes the pretty printer does not produce: the
/// Perfetto exporter's hand-built trace, and a table committed with
/// fixed-notation floats (`0.00006836437260882011`, which the printer
/// spells `6.836437260882011e-5`).
const NOT_PRETTY_PRINTED: [&str; 2] = ["fig2_trace.perfetto.json", "ablation_sleep_modes.json"];

#[test]
fn committed_results_rerender_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("results directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter(|n| n.ends_with(".json") && !NOT_PRETTY_PRINTED.contains(&n.as_str()))
        .collect();
    names.sort();
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name)).expect("readable result file");
        let body = text.strip_suffix('\n').unwrap_or(&text);
        let tree: Value = serde_json::from_str(body).expect("committed results parse");
        let again = serde_json::to_string_pretty(&tree).expect("a tree serializes");
        if again != body {
            let at = again
                .bytes()
                .zip(body.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(again.len().min(body.len()));
            panic!("{name}: re-rendered text first differs from the committed bytes at byte {at}");
        }
    }
    assert_eq!(names.len(), 18, "result files checked: {names:?}");
}
