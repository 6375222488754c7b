//! Shared helpers for the benchmark harness and the `repro` binary.

use std::path::Path;

pub mod ab;
pub mod remote;
pub mod shard;

/// Directory where `repro` writes CSV artifacts (created on demand).
pub const RESULTS_DIR: &str = "results";

/// Write `content` to `<base>/results/<name>` (best effort; returns the
/// path relative to `base`).
pub fn write_artifact(base: &Path, name: &str, content: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(base.join(RESULTS_DIR))?;
    let path = format!("{RESULTS_DIR}/{name}");
    std::fs::write(base.join(&path), content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_artifact_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bench-artifact-test-{}", std::process::id()));
        let path = write_artifact(&dir, "x.csv", "a,b\n1,2\n").unwrap();
        let back = std::fs::read_to_string(dir.join(&path));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(path, "results/x.csv");
        assert_eq!(back.unwrap(), "a,b\n1,2\n");
    }
}
