//! Machine-readable output for mask-lint: `--format json` and
//! `--format sarif`.
//!
//! The SARIF document follows the 2.1.0 shape GitHub code scanning
//! consumes: one run, a `tool.driver` carrying the full rule table (ids,
//! short/full descriptions, default level), and one `result` per violation
//! with a `physicalLocation` whose `artifactLocation.uri` is
//! repo-relative (`uriBaseId: %SRCROOT%`), so CI can upload the file
//! directly and GitHub renders inline annotations. The documents are
//! format strings; string escaping (and, in the tests, parsing) is
//! `mask_common::json`, the workspace's one JSON module.

use super::passes::RULES;
use super::Violation;
use mask_common::json::escape;
use std::path::Path;

/// `path` relative to `root`, with forward slashes (a SARIF/JSON URI).
fn rel_uri(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Index of a rule id in [`RULES`] (the SARIF `ruleIndex`).
fn rule_index(id: &str) -> usize {
    RULES
        .iter()
        .position(|r| r.id == id)
        .expect("every violation carries a registered rule id")
}

/// The mask-lint native JSON report.
pub(crate) fn json(root: &Path, violations: &[Violation]) -> String {
    let mut out = String::from(
        "{\n  \"tool\": \"mask-lint\",\n  \"version\": \"2.0.0\",\n  \"violations\": [",
    );
    for (n, v) in violations.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\", \"fixable\": {}}}",
            escape(&rel_uri(root, &v.path)),
            v.line,
            v.col,
            escape(v.rule),
            escape(&v.message),
            v.fix.is_some()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A SARIF 2.1.0 report suitable for GitHub code-scanning upload.
pub(crate) fn sarif(root: &Path, violations: &[Violation]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"mask-lint\",\n          \"version\": \"2.0.0\",\n          \"informationUri\": \"https://github.com/mask-repro/mask\",\n          \"rules\": [",
    );
    for (n, r) in RULES.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"fullDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}",
            escape(r.id),
            escape(r.short),
            escape(r.help)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (n, v) in violations.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
            escape(v.rule),
            rule_index(v.rule),
            escape(&v.message),
            escape(&rel_uri(root, &v.path)),
            v.line,
            v.col
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Both reports hold only strings, integers and booleans, so the
    /// integer-only wire parser is a complete well-formedness check.
    fn check_json(s: &str) {
        if let Err(e) = mask_common::json::parse(s) {
            panic!("{e} in:\n{s}");
        }
    }

    fn sample() -> (PathBuf, Vec<Violation>) {
        let root = PathBuf::from("/repo");
        let violations = vec![
            Violation {
                path: PathBuf::from("/repo/crates/tlb/src/l1.rs"),
                line: 3,
                col: 7,
                rule: "collections",
                message: "a \"quoted\" message with a\nnewline and a \\ backslash".into(),
                fix: None,
            },
            Violation {
                path: PathBuf::from("/repo/crates/common/src/req.rs"),
                line: 10,
                col: 1,
                rule: "debug-derive",
                message: "missing Debug".into(),
                fix: Some(super::super::Fix::InsertAbove("#[derive(Debug)]".into())),
            },
        ];
        (root, violations)
    }

    #[test]
    fn json_report_is_well_formed_and_repo_relative() {
        let (root, v) = sample();
        let doc = json(&root, &v);
        check_json(&doc);
        assert!(
            doc.contains("\"crates/tlb/src/l1.rs\""),
            "repo-relative path"
        );
        assert!(doc.contains("\"fixable\": true"));
        assert!(doc.contains("\\\"quoted\\\""), "escaped quotes: {doc}");
    }

    #[test]
    fn sarif_report_has_the_code_scanning_shape() {
        let (root, v) = sample();
        let doc = sarif(&root, &v);
        check_json(&doc);
        // The SARIF 2.1.0 envelope.
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("sarif-schema-2.1.0"));
        // Driver carries the full rule table.
        assert!(doc.contains("\"name\": \"mask-lint\""));
        for r in RULES {
            assert!(
                doc.contains(&format!("\"id\": \"{}\"", r.id)),
                "rule {}",
                r.id
            );
        }
        // Results reference rules by id + index and locate the violation.
        assert!(doc.contains("\"ruleId\": \"collections\""));
        assert!(doc.contains(&format!(
            "\"ruleIndex\": {}",
            super::rule_index("collections")
        )));
        assert!(doc.contains("\"uri\": \"crates/tlb/src/l1.rs\""));
        assert!(doc.contains("\"uriBaseId\": \"%SRCROOT%\""));
        assert!(doc.contains("\"startLine\": 3"));
        assert!(doc.contains("\"startColumn\": 7"));
        assert!(doc.contains("\"level\": \"error\""));
    }

    #[test]
    fn empty_reports_are_still_valid_json() {
        let root = PathBuf::from("/repo");
        check_json(&json(&root, &[]));
        check_json(&sarif(&root, &[]));
    }

    #[test]
    fn sarif_rule_index_is_stable_for_every_rule() {
        for (n, r) in RULES.iter().enumerate() {
            assert_eq!(rule_index(r.id), n);
        }
    }
}
