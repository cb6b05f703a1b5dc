//! Prose numbers that cannot go stale: every number inside a marked block
//! of EXPERIMENTS.md must appear, written the same way, in the results
//! file the block names. A block reads
//!
//! ```text
//! <!-- numbers: results/ablation.txt -->
//! ... prose quoting figures from that file ...
//! <!-- /numbers -->
//! ```
//!
//! A number is a run of digits with an optional fraction (`217.8`, `5`),
//! not glued to a preceding letter, digit or dot, so names such as `E6`
//! or `jctrans2` are not numbers. Numbers are compared as text: a block
//! that rounds `333.0` to `333` fails.

use std::path::Path;

const OPEN: &str = "<!-- numbers: ";
const CLOSE: &str = "<!-- /numbers -->";

/// The numbers of `text`, in order.
fn numbers(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let glued = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'.');
        if !bytes[i].is_ascii_digit() || glued {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
        out.push(&text[start..i]);
    }
    out
}

/// Every marked block of `doc` as `(results path, block text)`.
fn blocks(doc: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(OPEN) {
        let after = &rest[at + OPEN.len()..];
        let (path, body) = after
            .split_once(" -->")
            .expect("an opening marker ends in -->");
        let (block, tail) = body
            .split_once(CLOSE)
            .unwrap_or_else(|| panic!("block for {path} has no closing marker"));
        out.push((path, block));
        rest = tail;
    }
    out
}

#[test]
fn numbering_skips_names_and_keeps_fractions() {
    assert_eq!(
        numbers("E6 at 3.7–5.3x, jctrans2 c=0.1 to 23.5x; Fig.-4 (+2 more). 10"),
        ["3.7", "5.3", "0.1", "23.5", "4", "2", "10"]
    );
}

#[test]
fn marked_prose_numbers_appear_in_their_results_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("reads EXPERIMENTS.md");
    let blocks = blocks(&doc);
    assert!(!blocks.is_empty(), "EXPERIMENTS.md marks no numbers");
    for (path, block) in blocks {
        let results = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("block names {path}, which cannot be read: {e}"));
        let known = numbers(&results);
        let quoted = numbers(block);
        assert!(!quoted.is_empty(), "the block for {path} quotes no number");
        let missing: Vec<&str> = quoted.into_iter().filter(|n| !known.contains(n)).collect();
        assert!(
            missing.is_empty(),
            "EXPERIMENTS.md quotes {missing:?}, which {path} does not contain"
        );
    }
}
