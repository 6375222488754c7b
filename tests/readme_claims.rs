//! Every "`BENCH_<x>.json`'s `<section>`" citation in README.md must name a
//! top-level section that exists in the committed BENCH file, so the
//! README cannot point readers at numbers nobody recorded; and README's
//! environment-variable table must list exactly the `REPRO_*` variables
//! the sources read, so a removed variable cannot linger in the docs and
//! a new one cannot go undocumented.

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

/// Every `REPRO_*` name quoted as a string literal in the non-test
/// sources under `crates/` and `src/` — the environment variables the
/// program reads (through `std::env::var` or a helper such as chaos's
/// `env_u64`) or exports to its workers. Test code is skipped as
/// `.github/loc.sh` skips it: `tests/` directories, and each file from
/// its first `#[cfg(test)]` on.
fn source_env_names(root: &Path) -> std::collections::BTreeSet<String> {
    fn walk(dir: &Path, names: &mut std::collections::BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "tests") {
                    walk(&path, names);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let code = text.split("#[cfg(test)]").next().unwrap();
                names.extend(
                    env_names(code, "\"REPRO_")
                        .into_iter()
                        .filter(|(_, closed)| *closed)
                        .map(|(name, _)| name),
                );
            }
        }
    }
    let mut names = std::collections::BTreeSet::new();
    for dir in ["crates", "src"] {
        walk(&root.join(dir), &mut names);
    }
    names
}

/// Each `REPRO_*` name that follows an occurrence of `marker` (which
/// ends in `REPRO_`), with whether a closing quote follows it.
fn env_names(text: &str, marker: &str) -> Vec<(String, bool)> {
    text.match_indices(marker)
        .map(|(at, _)| {
            let start = at + marker.len() - "REPRO_".len();
            let len = text[start..]
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(text.len() - start);
            let name = &text[start..start + len];
            (name.to_string(), text[start + len..].starts_with('"'))
        })
        .collect()
}

#[test]
fn readme_env_table_lists_exactly_the_variables_the_sources_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let table: std::collections::BTreeSet<String> = env_names(&readme, "| `REPRO_")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let sources = source_env_names(root);
    assert!(
        sources.contains("REPRO_TELEMETRY"),
        "the scan found {sources:?}"
    );
    assert_eq!(
        table, sources,
        "README's environment table vs the REPRO_* names the sources read"
    );
    // Prose may abbreviate a family (`REPRO_CHAOS_*`), but every name it
    // spells out must still be read somewhere.
    for (name, _) in env_names(&readme, "REPRO_") {
        assert!(
            sources.contains(&name)
                || sources
                    .iter()
                    .any(|s| name.ends_with('_') && s.starts_with(&name)),
            "README names {name}, which no source reads"
        );
    }
}

#[test]
fn env_name_scanner_reads_literals_and_table_rows() {
    assert_eq!(
        env_names(r#"var("REPRO_A_1") + "REPRO_B" REPRO_C_ "#, "\"REPRO_"),
        [("REPRO_A_1".into(), true), ("REPRO_B".into(), true)]
    );
    assert_eq!(
        env_names("| `REPRO_X` | y |\n`REPRO_Z_*`", "REPRO_"),
        [("REPRO_X".into(), false), ("REPRO_Z_".into(), false)]
    );
    assert_eq!(
        env_names("| `REPRO_X` | like `REPRO_Y` |", "| `REPRO_"),
        [("REPRO_X".to_string(), false)]
    );
}
