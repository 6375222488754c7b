//! Golden-output check for `repro` runs.
//!
//! Every paper run must reproduce committed SHA-256 digests of its stdout
//! and of every `results/*` artifact, byte for byte, at every thread and
//! shard count. The digest files under `golden/` use the `sha256sum`
//! layout (`<hex>  <name>`), so they can also be checked by hand from a
//! run directory with `sha256sum -c`.

use sim_runtime::service::cache::sha256;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `repro all` at full horizons.
pub const FULL: &str = include_str!("../golden/full.sha256");
/// `repro --quick all`.
pub const QUICK: &str = include_str!("../golden/quick.sha256");
/// `repro params`: the set-up probe.
pub const PARAMS: &str = include_str!("../golden/params.sha256");

/// Output name (`stdout` or `results/<file>`) → hex SHA-256.
pub type Digests = BTreeMap<String, String>;

pub fn parse(text: &str) -> Digests {
    text.lines()
        .filter_map(|l| l.split_once("  "))
        .map(|(hex, name)| (name.to_string(), hex.to_string()))
        .collect()
}

pub fn render(digests: &Digests) -> String {
    digests
        .iter()
        .map(|(name, hex)| format!("{hex}  {name}\n"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest a run's stdout and every file `repro` wrote under `dir/results`.
pub fn digest_outputs(stdout: &[u8], dir: &Path) -> std::io::Result<Digests> {
    let mut out = Digests::new();
    out.insert("stdout".into(), hex(stdout));
    let results = dir.join(bench::RESULTS_DIR);
    if results.is_dir() {
        for entry in std::fs::read_dir(&results)? {
            let entry = entry?;
            let name = format!(
                "{}/{}",
                bench::RESULTS_DIR,
                entry.file_name().to_string_lossy()
            );
            out.insert(name, hex(&std::fs::read(entry.path())?));
        }
    }
    Ok(out)
}

/// Names whose digests differ between `got` and `want` (missing on
/// either side counts).
pub fn mismatches(got: &Digests, want: &Digests) -> Vec<String> {
    let mut names: Vec<&String> = got.keys().chain(want.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|n| got.get(*n) != want.get(*n))
        .cloned()
        .collect()
}

/// One timed `repro` invocation.
pub struct Invocation {
    /// Spawn until exit, seconds.
    pub wall_s: f64,
    /// Stdout bytes.
    pub stdout: Vec<u8>,
    /// `Err` on a non-zero exit or a spawn failure.
    pub status: Result<(), String>,
}

/// Empty `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Spawn `repro args...` with `dir` as its working directory and time it
/// from spawn until exit.
pub fn invoke(repro: &str, dir: &Path, args: &[&str]) -> Invocation {
    let start = Instant::now();
    let out = Command::new(repro)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    let wall_s = start.elapsed().as_secs_f64();
    match out {
        Ok(o) => Invocation {
            wall_s,
            status: if o.status.success() {
                Ok(())
            } else {
                Err(format!("repro {} exited with {}", args.join(" "), o.status))
            },
            stdout: o.stdout,
        },
        Err(e) => Invocation {
            wall_s,
            stdout: Vec::new(),
            status: Err(format!("cannot spawn {repro}: {e}")),
        },
    }
}

/// Check a run's stdout and the artifacts under `dir` against `golden`.
pub fn check(what: &str, stdout: &[u8], dir: &Path, golden: &Digests) -> Result<(), String> {
    let got = digest_outputs(stdout, dir).map_err(|e| e.to_string())?;
    let bad = mismatches(&got, golden);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: outputs differ from golden: {}",
            bad.join(", ")
        ))
    }
}

/// [`invoke`] in a fresh `dir`, then [`check`] its outputs; the directory
/// is removed afterwards. Returns the wall time and the verdict.
pub fn run_checked(
    repro: &str,
    dir: &Path,
    args: &[&str],
    golden: &Digests,
) -> (f64, Result<(), String>) {
    if let Err(e) = fresh_dir(dir) {
        return (0.0, Err(e));
    }
    let inv = invoke(repro, dir, args);
    let what = format!("repro {}", args.join(" "));
    let verdict = inv
        .status
        .and_then(|()| check(&what, &inv.stdout, dir, golden));
    let _ = std::fs::remove_dir_all(dir);
    (inv.wall_s, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_and_render_back() {
        for text in [FULL, QUICK, PARAMS] {
            let d = parse(text);
            assert!(d.contains_key("stdout"));
            assert!(d.values().all(|h| h.len() == 64));
            assert_eq!(render(&d), text);
        }
        // Every figure and DOT export of `all` is pinned.
        assert_eq!(parse(FULL).len(), 15);
        assert_eq!(
            parse(FULL).keys().collect::<Vec<_>>(),
            parse(QUICK).keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mismatches_name_changed_missing_and_extra_outputs() {
        let want = parse("aa  stdout\nbb  results/x.csv\n");
        let got = parse("aa  stdout\ncc  results/x.csv\ndd  results/y.csv\n");
        assert_eq!(
            mismatches(&got, &want),
            vec!["results/x.csv", "results/y.csv"]
        );
        assert!(mismatches(&want, &want).is_empty());
    }
}
