//! The `reproduce` command line end to end: the exit codes (0 ran, 1 artifact
//! not written, 2 bad command line), the artifact set a target leaves behind
//! and the artifact lock every commit is held to.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hybrid_graph::Fnv1a64;

/// A fresh working directory per test: `reproduce` writes `results/` into
/// its current directory and cargo runs the tests of this file in parallel.
fn fresh_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("reproduce-cli-{test}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch directory");
    }
    fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn reproduce(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn reproduce")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_write_nothing() {
    let dir = fresh_dir("usage");
    let out = reproduce(&dir, &["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown target 'bogus'"), "{err}");
    assert!(err.contains("usage: reproduce ["), "{err}");

    // The retired perf-gate, scale-tier and registry-filter flags are unknown
    // flags now, not silent no-ops.
    let retired: [&[&str]; 5] = [
        &["--strict"],
        &["--check-regression"],
        &["--scale"],
        &["--algo", "theorem1"],
        &["--algo=theorem1"],
    ];
    for flags in retired {
        let out = reproduce(&dir, &[&["table3", "--quick"], flags].concat());
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown flag '{}'", flags[0])),
            "{err}"
        );
        assert!(err.contains("usage: reproduce ["), "{err}");
    }
    assert!(!dir.join("results").exists());
}

#[test]
fn one_target_writes_exactly_its_artifact_and_repeats_byte_for_byte() {
    let dir = fresh_dir("table3");
    let artifact = dir.join("results/table3_klsp.json");

    let out = reproduce(&dir, &["table3", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let written: Vec<_> = fs::read_dir(dir.join("results"))
        .expect("results directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    assert_eq!(written, ["table3_klsp.json"]);
    let first = fs::read(&artifact).expect("artifact");

    let out = reproduce(&dir, &["table3", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(fs::read(&artifact).expect("artifact"), first);
}

#[test]
fn unwritable_results_directory_exits_1_naming_the_path() {
    let dir = fresh_dir("unwritable");
    fs::write(dir.join("results"), "not a directory").expect("plant a file");
    let out = reproduce(&dir, &["table3", "--quick"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("table3: results: "), "{err}");
}

/// The lock text of a `results/` directory: one `name bytes digest` line per
/// file, by name, with the file's FNV-1a-64 digest in hex.
fn lock_of(results: &Path) -> String {
    let mut names: Vec<_> = fs::read_dir(results)
        .expect("results directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    names.sort();
    let mut lock = String::new();
    for name in names {
        let bytes = fs::read(results.join(&name)).expect("artifact");
        let mut digest = Fnv1a64::new();
        digest.write(&bytes);
        let name = name.to_string_lossy();
        lock += &format!("{name} {} {:016x}\n", bytes.len(), digest.finish());
    }
    lock
}

/// `name -> "bytes digest"` per line of a lock text.
fn lock_entries(lock: &str) -> BTreeMap<&str, &str> {
    lock.lines()
        .filter_map(|line| line.split_once(' '))
        .collect()
}

/// Every artifact of `all --quick` is byte-identical to what the tracked
/// `results.lock` at the repository root records.  A change that means to
/// move artifacts replaces that file with the lock text this test prints.
#[test]
fn all_quick_matches_the_tracked_artifact_lock() {
    let dir = fresh_dir("lock");
    let out = reproduce(&dir, &["all", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let fresh = lock_of(&dir.join("results"));
    let tracked_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results.lock");
    let tracked = fs::read_to_string(&tracked_path).expect("tracked results.lock");
    let (fresh_entries, tracked_entries) = (lock_entries(&fresh), lock_entries(&tracked));
    assert_eq!(fresh_entries.len(), 10, "one artifact per target");
    let names: BTreeSet<&str> = fresh_entries
        .keys()
        .chain(tracked_entries.keys())
        .copied()
        .collect();
    let drifted: Vec<&str> = names
        .into_iter()
        .filter(|name| fresh_entries.get(name) != tracked_entries.get(name))
        .collect();
    assert!(
        drifted.is_empty(),
        "artifacts drifted from results.lock: {drifted:?}\n\
         if the change is meant, replace results.lock with:\n{fresh}"
    );
}
