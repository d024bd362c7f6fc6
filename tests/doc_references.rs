//! Every code reference in the prose documents resolves.
//!
//! A backticked `path.rs` or `path.rs::name` in README.md, DESIGN.md,
//! OBSERVABILITY.md or EXPERIMENTS.md must name a file of the tree
//! (outside `target/`; a bare file name or a path suffix such as
//! `tests/common/scenarios.rs` is enough), and each `::`-separated part
//! of the name must occur in that file. A test, function or file that is
//! renamed or deleted therefore takes its mentions with it: the text is
//! fixed to the live name, or says which commit removed it without the
//! backticked form.

use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md"];

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The inline code spans of `text` outside fenced blocks. A span may be
/// wrapped across a line break, as Markdown allows.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut spans = Vec::new();
    for paragraph in prose.split("\n\n") {
        let parts: Vec<&str> = paragraph.split('`').collect();
        spans.extend(parts.iter().skip(1).step_by(2).map(|s| s.to_string()));
    }
    spans
}

/// Splits a span of the form `path.rs` or `path.rs::name` into the path
/// and the name's parts; `None` for any other span.
fn reference(span: &str) -> Option<(&str, Vec<&str>)> {
    let (path, name) = match span.split_once("::") {
        Some((path, name)) => (path, Some(name)),
        None => (span, None),
    };
    let is_path = path.len() > 3
        && path.ends_with(".rs")
        && path.chars().all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c));
    if !is_path {
        return None;
    }
    let parts = name.map_or_else(Vec::new, |name| {
        name.trim_end_matches("()").split("::").collect()
    });
    Some((path.trim_start_matches("./"), parts))
}

#[test]
fn every_code_reference_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    let relative: Vec<(String, &PathBuf)> = files
        .iter()
        .map(|f| (f.strip_prefix(root).unwrap().to_string_lossy().into_owned(), f))
        .collect();

    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for span in code_spans(&text) {
            let Some((path, parts)) = reference(&span) else { continue };
            checked += 1;
            let suffix = format!("/{path}");
            let sources: Vec<String> = relative
                .iter()
                .filter(|(rel, _)| *rel == path || rel.ends_with(&suffix))
                .map(|(_, file)| std::fs::read_to_string(file).unwrap())
                .collect();
            if sources.is_empty() {
                broken.push(format!("{doc}: `{span}`: no such file"));
            } else if let Some(part) =
                parts.iter().find(|part| !sources.iter().any(|s| s.contains(*part)))
            {
                broken.push(format!("{doc}: `{span}`: `{part}` not in {path}"));
            }
        }
    }
    println!("{checked} code references checked");
    assert!(checked >= 40, "only {checked} code references found: the span parser broke");
    assert!(broken.is_empty(), "code references that do not resolve:\n{}", broken.join("\n"));
}
