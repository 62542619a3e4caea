//! The prose stays true to the tree: every file path that DESIGN.md,
//! README.md and EXPERIMENTS.md quote exists, every citation of a DESIGN.md
//! section names a section that exists, and DESIGN.md stays short enough to
//! read in one sitting.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The documents whose quoted paths are checked.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// The root-level Markdown files the citation walk reads: the documents that
/// describe the tree. The others are records (the change log) or quotations
/// (paper and related-work excerpts), which may cite earlier layouts.
const ROOT_DOCS: [&str; 4] = ["DESIGN.md", "README.md", "EXPERIMENTS.md", "ROADMAP.md"];

/// A code span with one of these endings (and a `/`) is a path.
const EXTENSIONS: [&str; 7] = [".rs", ".toml", ".json", ".md", ".sh", ".yml", ".lock"];

/// Directories the citation walk never enters, by name.
const SKIP_DIRS: [&str; 3] = [".git", "target", "vendor"];

const DESIGN_MAX_LINES: usize = 700;

fn read(file: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(file)).expect(file)
}

/// The inline code spans of a Markdown document; fenced blocks are left out.
fn code_spans(md: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// `a/{b,c}.rs` is `a/b.rs` and `a/c.rs`; a span without braces is itself.
fn expand(span: &str) -> Vec<String> {
    match (span.find('{'), span.find('}')) {
        (Some(open), Some(close)) if open < close => span[open + 1..close]
            .split(',')
            .flat_map(|alt| expand(&format!("{}{alt}{}", &span[..open], &span[close + 1..])))
            .collect(),
        _ => vec![span.to_owned()],
    }
}

/// Whether a code span names a file of the tree (build output and
/// placeholders such as `<key>.msnp` excepted).
fn is_path(span: &str) -> bool {
    span.contains('/')
        && !span.contains(char::is_whitespace)
        && !span.contains('<')
        && !span.starts_with("target/")
        && !span.contains("/target/")
        && EXTENSIONS.iter().any(|ext| span.ends_with(ext))
}

/// Every quoted path of the three documents that does not exist.
fn missing_paths() -> Vec<String> {
    let mut missing = Vec::new();
    for doc in DOCS {
        for span in code_spans(&read(doc)) {
            for path in expand(&span) {
                if is_path(&path) && !Path::new(ROOT).join(&path).exists() {
                    missing.push(format!("{doc}: quoted path `{path}` does not exist"));
                }
            }
        }
    }
    missing
}

/// The numbers of DESIGN.md's `## N.` headings.
fn design_sections() -> BTreeSet<u32> {
    read("DESIGN.md")
        .lines()
        .filter_map(|line| line.strip_prefix("## "))
        .filter_map(|title| title.split_once('.'))
        .filter_map(|(number, _)| number.parse().ok())
        .collect()
}

/// `text` with comment markers dropped from the start of each line and every
/// run of whitespace collapsed to one space, so that a citation broken over
/// two lines of a doc comment reads as one.
fn flatten(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim_start();
        ["//!", "///", "//", "#"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line)
    });
    lines
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every section number `text` cites as `DESIGN.md §N`, with each further
/// `§M` chained after it by `,` or `and`.
fn cited_sections(text: &str) -> Vec<u32> {
    let flat = flatten(text);
    let mut cited = Vec::new();
    let mut rest = flat.as_str();
    while let Some(at) = rest.find("DESIGN.md §") {
        rest = &rest[at + "DESIGN.md ".len()..];
        while let Some(after) = rest.strip_prefix('§') {
            let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            let Ok(number) = after[..digits].parse() else {
                break;
            };
            cited.push(number);
            rest = &after[digits..];
            match [", and ", " and ", ", "]
                .iter()
                .find_map(|sep| rest.strip_prefix(sep))
            {
                Some(next) if next.starts_with('§') => rest = next,
                _ => break,
            }
        }
    }
    cited
}

/// Every readable text file of the repository, relative to its root.
fn text_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                text_files(&path, out);
            }
        } else if dir != Path::new(ROOT) || !name.ends_with(".md") || ROOT_DOCS.contains(&name) {
            if let Ok(text) = fs::read_to_string(&path) {
                let rel = path.strip_prefix(ROOT).expect("under the root");
                out.push((rel.display().to_string(), text));
            }
        }
    }
}

/// Every `DESIGN.md` section citation in the repository that names no
/// section.
fn dangling_citations() -> Vec<String> {
    let sections = design_sections();
    let mut files = Vec::new();
    text_files(Path::new(ROOT), &mut files);
    files
        .iter()
        .flat_map(|(file, text)| {
            cited_sections(text)
                .into_iter()
                .filter(|n| !sections.contains(n))
                .map(move |n| {
                    format!("{file}: cites DESIGN.md \u{a7}{n}, which has no `## {n}.` heading")
                })
        })
        .collect()
}

#[test]
fn docs_describe_the_tree() {
    assert_eq!(
        cited_sections("see DESIGN.md\n//! \u{a7}10 and \u{a7}11, and DESIGN.md \u{a7}13, \u{a7}15; \u{a7}2 alone"),
        [10, 11, 13, 15]
    );
    assert_eq!(cited_sections("DESIGN.md \u{a7}N"), Vec::<u32>::new());
    assert_eq!(
        expand("crates/maskd/src/{server,store}.rs"),
        ["crates/maskd/src/server.rs", "crates/maskd/src/store.rs"]
    );
    assert!(is_path("tests/docs.rs") && !is_path("golden_bytes.rs"));
    assert!(!is_path("target/mask-results/<slug>.json") && !is_path("bash benchmark/run.sh"));

    let mut problems = missing_paths();
    problems.extend(dangling_citations());
    let lines = read("DESIGN.md").lines().count();
    if lines > DESIGN_MAX_LINES {
        problems.push(format!(
            "DESIGN.md has {lines} lines, over {DESIGN_MAX_LINES}: it says what the code \
             does now and cites CHANGES.md for history and measurements"
        ));
    }
    assert!(
        problems.is_empty(),
        "{} problems:\n{}",
        problems.len(),
        problems.join("\n")
    );
}
