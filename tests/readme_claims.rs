//! Every "`BENCH_<x>.json`'s `<section>`" citation in README.md must name a
//! top-level section that exists in the committed BENCH file, so the
//! README cannot point readers at numbers nobody recorded.

use std::path::Path;

/// `(file, section)` for every "`BENCH_<x>.json`'s `<section>`" citation,
/// the section name possibly on the next line.
fn cited_sections(readme: &str) -> Vec<(String, String)> {
    let mut cites = Vec::new();
    let mut rest = readme;
    while let Some(at) = rest.find("`BENCH_") {
        rest = &rest[at + 1..];
        let Some(end) = rest.find(".json`") else {
            break;
        };
        let file = &rest[..end + ".json".len()];
        let after = &rest[end + ".json`".len()..];
        let Some(tail) = after.strip_prefix("'s") else {
            continue;
        };
        let Some(section) = tail.trim_start().strip_prefix('`') else {
            continue;
        };
        if let Some(close) = section.find('`') {
            cites.push((file.to_string(), section[..close].to_string()));
        }
    }
    cites
}

/// The keys of a JSON document's top-level object. Strings are skipped
/// whole, so braces and quotes inside values do not confuse the depth.
fn top_level_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let start = i + 1;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let is_key = json[i + 1..].trim_start().starts_with(':');
                if depth == 1 && is_key {
                    keys.push(json[start..i].to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

#[test]
fn readme_cites_only_bench_sections_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let cites = cited_sections(&readme);
    assert!(
        cites.len() >= 4,
        "expected the README's BENCH citations, found {cites:?}"
    );
    for (file, section) in &cites {
        let json = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("README cites {file}, which cannot be read: {e}"));
        let keys = top_level_keys(&json);
        assert!(
            keys.contains(section),
            "README cites {file}'s `{section}` section; its sections are {keys:?}"
        );
    }
}

#[test]
fn scanners_find_citations_and_top_level_keys() {
    let cites = cited_sections(
        "see `BENCH_a.json`'s\n  `cache` section; `BENCH_b.json` alone; `BENCH_c.json`'s `x`",
    );
    assert_eq!(
        cites,
        [("BENCH_a.json", "cache"), ("BENCH_c.json", "x")].map(|(f, s)| (f.into(), s.into()))
    );
    let keys = top_level_keys(r#"{"a": {"b": 1}, "c": "d\"}{:", "e": [{"f": 2}]}"#);
    assert_eq!(keys, ["a", "c", "e"]);
}
