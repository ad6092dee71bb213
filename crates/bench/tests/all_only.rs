//! `all --only SECTION` regenerates one section and leaves the full
//! `results/all.txt` archive alone.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_all");

#[test]
fn only_filter_keeps_the_combined_archive() {
    let dir: PathBuf = std::env::temp_dir().join(format!("crow-all-only-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("results")).expect("create results dir");
    let sentinel = "full archive from an earlier unfiltered run\n";
    std::fs::write(dir.join("results/all.txt"), sentinel).expect("seed all.txt");

    // table1 is circuit-only: no simulation, so this runs in milliseconds.
    let out = Command::new(BIN)
        .args(["--only", "table1"])
        .current_dir(&dir)
        .output()
        .expect("spawn all");
    assert!(
        out.status.success(),
        "all --only table1 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let table1 = std::fs::read_to_string(dir.join("results/table1.txt")).expect("table1.txt");
    assert!(!table1.is_empty(), "the selected section is written");
    assert_eq!(
        std::fs::read_to_string(dir.join("results/all.txt")).expect("all.txt"),
        sentinel,
        "a filtered run must not overwrite the combined archive"
    );
    std::fs::remove_dir_all(&dir).ok();
}
