//! CLI contract tests for the `repro` binary: conflicting executor flags
//! are an explicit error, environment-derived conflicts resolve by the
//! documented precedence with a warning, the service verbs validate
//! their arguments before touching the network, and targets that share a
//! sweep render the same bytes in one process as in separate ones.

use std::process::Command;

fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    // Isolate from any ambient executor / fault-policy / chaos
    // configuration.
    cmd.env_remove("REPRO_SHARDS")
        .env_remove("REPRO_HOSTS")
        .env_remove("REPRO_SERVICE")
        .env_remove("REPRO_THREADS")
        .env_remove("REPRO_RETRY")
        .env_remove("REPRO_IO_TIMEOUT")
        .env_remove("REPRO_POOL")
        .env_remove("REPRO_BATCH")
        .env_remove("REPRO_ENGINE")
        .env_remove("REPRO_CHAOS_SEED");
    cmd
}

fn run(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("repro runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn conflicting_executor_flags_are_an_explicit_error() {
    for flags in [
        vec!["--shards", "2", "--hosts", "127.0.0.1:1"],
        vec!["--shards", "2", "--service", "127.0.0.1:1"],
        vec!["--hosts", "127.0.0.1:1", "--service", "127.0.0.1:2"],
    ] {
        let (code, _out, err) = run(repro().args(&flags).arg("params"));
        assert_eq!(code, 2, "flags {flags:?} must be rejected: {err}");
        assert!(
            err.contains("conflicting executor flags"),
            "flags {flags:?}: {err}"
        );
        assert!(
            err.contains("service > hosts > shards"),
            "the precedence must be documented in the error: {err}"
        );
    }
}

#[test]
fn explicit_inprocess_shards_zero_conflicts_with_nothing() {
    // `--shards 0` explicitly selects in-process execution; pairing it
    // with `--hosts` is not a conflict (`params` makes no dispatch, so
    // the unreachable host is never contacted).
    let (code, _out, err) = run(repro()
        .args(["--shards", "0", "--hosts", "127.0.0.1:1"])
        .arg("params"));
    assert_eq!(code, 0, "{err}");
}

#[test]
fn env_derived_conflict_warns_and_applies_precedence() {
    // REPRO_SHARDS from the environment + --hosts on the CLI: hosts win,
    // loudly. `params` performs no grid dispatch, so nothing connects.
    let (code, _out, err) = run(repro()
        .env("REPRO_SHARDS", "2")
        .args(["--hosts", "127.0.0.1:9"])
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(
        err.contains("warning: multiple executors configured"),
        "{err}"
    );
    assert!(err.contains("precedence service > hosts > shards"), "{err}");
    assert!(
        err.contains("executor: remote(hosts=1"),
        "hosts must win over env shards: {err}"
    );

    // Same thing with a service address from the environment: it beats
    // both.
    let (code, _out, err) = run(repro()
        .env("REPRO_SHARDS", "2")
        .env("REPRO_SERVICE", "127.0.0.1:9")
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("executor: service("), "{err}");
}

#[test]
fn no_conflict_single_selector_stays_quiet() {
    let (code, _out, err) = run(repro().args(["--shards", "2"]).arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("warning: multiple executors"), "{err}");
    assert!(err.contains("executor: sharded(shards=2"), "{err}");
}

#[test]
fn service_verbs_validate_arguments_before_connecting() {
    // Missing --service.
    let (code, _out, err) = run(repro().args(["status", "1"]));
    assert_eq!(code, 2);
    assert!(err.contains("--service"), "{err}");
    // Missing job id.
    let (code, _out, err) = run(repro().args(["fetch", "--service", "127.0.0.1:1"]));
    assert_eq!(code, 2);
    assert!(err.contains("job id"), "{err}");
    // Unknown submit spec.
    let (code, _out, err) = run(repro().args(["submit", "--service", "127.0.0.1:1", "mm2"]));
    assert_eq!(code, 2);
    assert!(err.contains("unknown job spec"), "{err}");
    // serve without --listen.
    let (code, _out, err) = run(repro().arg("serve"));
    assert_eq!(code, 2);
    assert!(err.contains("--listen"), "{err}");
    // serve with conflicting backend flags.
    let (code, _out, err) = run(repro().args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--hosts",
        "127.0.0.1:1",
    ]));
    assert_eq!(code, 2);
    assert!(err.contains("conflicting executor flags"), "{err}");
}

#[test]
fn serve_mode_ignores_the_client_service_env_var() {
    // Regression: REPRO_SERVICE addresses clients at a daemon; a daemon
    // being started in the same shell must keep its explicit --shards
    // backend rather than having it silently discarded by the env var.
    use std::io::{BufRead, BufReader};
    let mut child = repro()
        .env("REPRO_SERVICE", "127.0.0.1:9")
        .args(["serve", "--listen", "127.0.0.1:0", "--shards", "2"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // The backend line is announced on stderr before the daemon binds.
    let mut line = String::new();
    BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        line.contains("backend: sharded(shards=2"),
        "daemon must keep its explicit backend: {line}"
    );
    assert!(!line.contains("service"), "{line}");
}

#[test]
fn fault_flags_reject_garbage_values() {
    for (flags, needle) in [
        (vec!["--retry", "many"], "--retry needs"),
        (vec!["--retry"], "--retry needs"),
        (vec!["--io-timeout", "-1"], "--io-timeout needs"),
        (vec!["--io-timeout", "soon"], "--io-timeout needs"),
        (vec!["--pool", "maybe"], "--pool needs"),
        (vec!["--batch", "0"], "--batch needs"),
        (vec!["--batch", "wide"], "--batch needs"),
        (vec!["--batch"], "--batch needs"),
    ] {
        let (code, _out, err) = run(repro().args(&flags).arg("params"));
        assert_eq!(code, 2, "flags {flags:?} must be rejected: {err}");
        assert!(err.contains(needle), "flags {flags:?}: {err}");
    }
    // The same validation applies to serve mode.
    let (code, _out, err) =
        run(repro().args(["serve", "--listen", "127.0.0.1:0", "--cache-budget", "lots"]));
    assert_eq!(code, 2);
    assert!(err.contains("--cache-budget needs"), "{err}");
}

#[test]
fn engine_flag_accepts_both_engines_and_rejects_garbage() {
    // Both engine names are accepted in run mode.
    for engine in ["interp", "lowered"] {
        let (code, _out, err) = run(repro().args(["--engine", engine]).arg("params"));
        assert_eq!(code, 0, "--engine {engine}: {err}");
    }
    // Anything else (or a missing value) is a usage error.
    for flags in [vec!["--engine", "bogus"], vec!["--engine"]] {
        let (code, _out, err) = run(repro().args(&flags).arg("params"));
        assert_eq!(code, 2, "flags {flags:?} must be rejected: {err}");
        assert!(err.contains("--engine needs interp or lowered"), "{err}");
    }
    // Serve mode validates the same way.
    let (code, _out, err) =
        run(repro().args(["serve", "--listen", "127.0.0.1:0", "--engine", "fast"]));
    assert_eq!(code, 2);
    assert!(err.contains("--engine needs interp or lowered"), "{err}");
}

#[test]
fn fault_env_vars_apply_and_flags_override_with_a_warning() {
    // Environment alone applies silently.
    let (code, _out, err) = run(repro().env("REPRO_RETRY", "5").arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("warning: REPRO_RETRY"), "{err}");
    // A differing explicit flag wins, loudly.
    let (code, _out, err) = run(repro()
        .env("REPRO_RETRY", "5")
        .args(["--retry", "0"])
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(
        err.contains("REPRO_RETRY=5 overridden by explicit flag (0)"),
        "{err}"
    );
    // Agreeing sources stay quiet.
    let (code, _out, err) = run(repro()
        .env("REPRO_IO_TIMEOUT", "30")
        .args(["--io-timeout", "30"])
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("overridden"), "{err}");
}

#[test]
fn batch_knob_resolves_flag_over_env_and_shows_in_the_label() {
    // Environment alone applies silently and shows up in the executor
    // label.
    let (code, _out, err) = run(repro().env("REPRO_BATCH", "8").arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("warning: REPRO_BATCH"), "{err}");
    assert!(err.contains("batch=8"), "{err}");
    // A differing explicit flag wins, loudly.
    let (code, _out, err) = run(repro()
        .env("REPRO_BATCH", "8")
        .args(["--batch", "4"])
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(
        err.contains("REPRO_BATCH=8 overridden by explicit flag (4)"),
        "{err}"
    );
    assert!(err.contains("batch=4"), "{err}");
    // The default (scalar) keeps the label untouched.
    let (code, _out, err) = run(repro().arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("batch="), "{err}");
    // Serve mode accepts the same knob and announces it.
    use std::io::{BufRead, BufReader};
    let mut child = repro()
        .args(["serve", "--listen", "127.0.0.1:0", "--batch", "6"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let _ = child.kill();
    let _ = child.wait();
    assert!(line.contains("batch=6"), "{line}");
}

#[test]
fn cache_gc_deletes_corrupt_entries_and_reports() {
    let dir = std::env::temp_dir().join(format!("repro-cli-cache-gc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("deadbeef.res"), b"not a cache entry").unwrap();
    let (code, out, err) = run(repro().args([
        "cache",
        "gc",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--budget",
        "1m",
    ]));
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("deleted 1 corrupt"), "{out}");
    assert!(
        !dir.join("deadbeef.res").exists(),
        "corrupt entry must be deleted"
    );
    // A verb other than gc (or none) is a usage error.
    let (code, _out, err) = run(repro().arg("cache"));
    assert_eq!(code, 2);
    assert!(err.contains("usage: repro cache gc"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreachable_service_fails_fast_with_a_clear_error() {
    // Nothing listens on port 1: the client verb must fail with exit 1
    // and a reachability message, not hang.
    let (code, _out, err) = run(repro().args(["stats", "--service", "127.0.0.1:1"]));
    assert_eq!(code, 1);
    assert!(err.contains("cannot reach service"), "{err}");
}

/// A fresh, empty working directory for one `repro` run.
fn fresh_cwd(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir/results`, by name.
fn results(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn cpu_comparison_targets_share_sweeps_without_changing_bytes() {
    // Interleaved PUDs and views: a sweep served for the wrong PUD, or a
    // view rendered twice, shows up as a byte difference.
    let targets = [
        "fig4", "fig7", "fig5", "fig8", "fig6", "fig9", "table4", "table5", "table6",
    ];
    let flags = ["--quick", "--threads", "2"];
    let together = fresh_cwd("shared-sweeps");
    let out = repro()
        .current_dir(&together)
        .args(flags)
        .args(targets)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut separate_stdout = Vec::new();
    let mut separate_results = std::collections::BTreeMap::new();
    for (i, target) in targets.iter().enumerate() {
        let cwd = fresh_cwd(&format!("separate-sweeps-{i}"));
        let one = repro()
            .current_dir(&cwd)
            .args(flags)
            .arg(target)
            .output()
            .expect("repro runs");
        assert!(
            one.status.success(),
            "{target}: {}",
            String::from_utf8_lossy(&one.stderr)
        );
        separate_stdout.extend_from_slice(&one.stdout);
        if cwd.join("results").exists() {
            separate_results.extend(results(&cwd));
        }
        let _ = std::fs::remove_dir_all(&cwd);
    }
    assert!(
        out.stdout == separate_stdout,
        "one process printed\n{}\nnine printed\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&separate_stdout)
    );
    let shared_results = results(&together);
    assert_eq!(
        shared_results.len(),
        6,
        "fig4–9 each write one CSV: {:?}",
        shared_results.keys()
    );
    assert!(
        shared_results == separate_results,
        "results/ differ between one and nine processes"
    );
    let _ = std::fs::remove_dir_all(&together);
}
