//! CLI contract tests for the `repro` binary: conflicting executor flags
//! are an explicit error, executor settings come from flags alone (and no
//! environment variable arms the chaos harness), the service verbs
//! validate their arguments before touching the network, and targets that
//! share a sweep render the same bytes in one process as in separate ones.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
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
fn former_executor_env_vars_are_inert() {
    // Executor settings come from flags alone: variables that once
    // mirrored them select nothing. `params` makes no dispatch, so the
    // address is never contacted.
    let (code, _out, err) = run(repro()
        .env("REPRO_SHARDS", "2")
        .env("REPRO_SERVICE", "127.0.0.1:9")
        .arg("params"));
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("executor: in-process("), "{err}");
    // A client verb needs its daemon address as a flag.
    let (code, _out, err) = run(repro()
        .env("REPRO_SERVICE", "127.0.0.1:9")
        .args(["status", "1"]));
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--service"), "{err}");
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
    // serve shares the executor parser but takes no --service: a daemon
    // cannot dispatch onto a daemon.
    let (code, _out, err) = run(repro().args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--service",
        "127.0.0.1:1",
    ]));
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--service"), "{err}");
    // And --fallback is a daemon flag only.
    let (code, _out, err) = run(repro().args(["--fallback", "params"]));
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag: --fallback"), "{err}");
}

#[test]
fn submit_rejects_unrunnable_values_before_connecting() {
    // Nothing listens on port 1: exit 2 (usage) rather than 1 (connect
    // failure) proves the spec was refused before any connection.
    for (flag, value) in [
        ("--horizon", "inf"),
        ("--horizon", "NaN"),
        ("--warmup", "inf"),
        ("--reps", "0"),
    ] {
        let (code, _out, err) =
            run(repro().args(["submit", "--service", "127.0.0.1:1", "mm1", flag, value]));
        assert_eq!(code, 2, "{flag} {value}: {err}");
    }
}

#[test]
fn fixed_replication_flag_is_gone() {
    // Every stochastic sweep runs under its stopping rule; there is no
    // fixed-count switch.
    let (code, _out, err) = run(repro().args(["--fixed-reps", "fig15"]));
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag: --fixed-reps"), "{err}");
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
        (vec!["--io-timeout", "1e30"], "--io-timeout needs"),
        (vec!["--pool", "maybe"], "--pool needs"),
    ] {
        let (code, _out, err) = run(repro().args(&flags).arg("params"));
        assert_eq!(code, 2, "flags {flags:?} must be rejected: {err}");
        assert!(err.contains(needle), "flags {flags:?}: {err}");
    }
    // The same validation applies to serve mode, whose executor flags go
    // through the same parser.
    for (flag, value) in [
        ("--cache-budget", "lots"),
        ("--retry", "many"),
        ("--io-timeout", "1e30"),
        ("--pool", "maybe"),
    ] {
        let (code, _out, err) =
            run(repro().args(["serve", "--listen", "127.0.0.1:0", flag, value]));
        assert_eq!(code, 2, "{flag} {value}: {err}");
        assert!(err.contains(&format!("{flag} needs")), "{err}");
    }
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

#[test]
fn former_chaos_env_vars_are_inert() {
    // Chaos is armed through the API only: variables that once armed it
    // (and forced the in-process fallback) change neither the log nor a
    // byte of a sharded run's artifacts.
    let flags = ["--quick", "--threads", "1", "--shards", "1", "fig14"];
    let clean = fresh_cwd("chaos-env-clean");
    let armed = fresh_cwd("chaos-env-armed");
    let (code, clean_out, err) = run(repro().current_dir(&clean).args(flags));
    assert_eq!(code, 0, "{err}");
    let (code, armed_out, err) = run(repro()
        .current_dir(&armed)
        .env("REPRO_CHAOS_SEED", "7")
        .env("REPRO_CHAOS_DROP", "1000")
        .args(flags));
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("executor: sharded(shards=1"), "{err}");
    assert!(!err.contains("chaos armed"), "{err}");
    assert!(clean_out == armed_out, "stdout differs");
    assert!(results(&clean) == results(&armed), "results/ differ");
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&armed);
}
