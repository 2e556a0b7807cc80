//! A run from another directory writes its reports there only: output
//! paths follow the working directory, not the tree the binary was built
//! from.

use std::path::{Path, PathBuf};
use std::process::Command;

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in rd.flatten() {
        if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
            out.extend(files_under(&entry.path()));
        } else {
            out.push(entry.path());
        }
    }
    out
}

#[test]
fn run_from_another_directory_writes_only_there() {
    let original = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join(".bench_out");
    let elsewhere = Path::new(env!("CARGO_TARGET_TMPDIR")).join("elsewhere");
    let _ = std::fs::remove_dir_all(&elsewhere);
    std::fs::create_dir_all(&elsewhere).unwrap();
    let before = files_under(&original);

    // A seed no other run uses, so its report names are unique. The
    // shortest run still does every round-0 run, traced leg and check.
    let seed = "918273645";
    let out = Command::new(env!("CARGO_BIN_EXE_cdvm-perfbench"))
        .args([
            "--workload",
            "cold_start",
            "--seed",
            seed,
            "--seconds",
            "0.001",
            "--trace",
            "1",
        ])
        .current_dir(&elsewhere)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or("");
    assert!(
        last.starts_with('{') && last.contains("\"correct\": true"),
        "last line: {last}"
    );

    let written = files_under(&elsewhere);
    for name in [
        format!("cold_start.seed{seed}.trace1.json"),
        format!("cold_start.seed{seed}.trace1.spans.json"),
        "cold_start.layers.md".to_string(),
    ] {
        assert!(
            written
                .iter()
                .any(|p| p.ends_with(Path::new(".bench_out").join(&name))),
            "{name} missing from {}: {written:?}",
            elsewhere.display()
        );
    }
    let after = files_under(&original);
    assert_eq!(before.len(), after.len(), "the source tree gained files");
    assert!(
        after.iter().all(|p| !p.to_string_lossy().contains(seed)),
        "the run wrote into the source tree"
    );
    let _ = std::fs::remove_dir_all(&elsewhere);
}
