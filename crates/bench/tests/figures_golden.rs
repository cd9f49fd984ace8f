//! Golden stdout for every binary that simulates and classifies whole
//! days: `fig2`–`fig10`, `table1`, `headline`, `exchanges` and
//! `ablations`. Each runs at a small scale under which it still passes
//! its own shape assertions, and its stdout must equal the file under
//! `tests/golden/` byte for byte.
//!
//! The golden files were captured before the figures moved onto the
//! chunked day step the scenario runner uses; they pin that a change to
//! how a day is driven (chunk length, drain order, classifier warm-up)
//! leaves every printed figure unchanged. Never edit them to make this
//! test pass. On a mismatch the actual output is written next to the
//! test's target directory, under `figures_golden/`, for diffing.
//!
//! The whole set takes about 20 s in release on two cores.

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} {args:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.out"));
    // A missing golden file reads as empty, so its first run still
    // leaves the actual output behind.
    let golden = std::fs::read(&golden_path).unwrap_or_default();
    if out.stdout != golden {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_golden");
        std::fs::create_dir_all(&dir).expect("create the actual-output dir");
        let actual = dir.join(format!("{name}.out"));
        std::fs::write(&actual, &out.stdout).expect("write the actual output");
        panic!(
            "{name} {args:?}: stdout differs from {} (actual output in {})",
            golden_path.display(),
            actual.display()
        );
    }
}

macro_rules! golden {
    ($($test:ident: $bin:literal [$($arg:literal),*];)*) => {$(
        #[test]
        fn $test() {
            check($bin, env!(concat!("CARGO_BIN_EXE_", $bin)), &[$($arg),*]);
        }
    )*};
}

golden! {
    fig2_is_unchanged: "fig2" ["--scale", "0.05", "--days-per-month", "1"];
    fig3_is_unchanged: "fig3" ["--scale", "0.02", "--days", "63"];
    fig4_is_unchanged: "fig4" ["--scale", "0.05"];
    fig5_is_unchanged: "fig5" ["--scale", "0.02", "--days", "14"];
    fig6_is_unchanged: "fig6" ["--scale", "0.05", "--days", "3"];
    fig7_is_unchanged: "fig7" ["--scale", "0.03", "--days", "3"];
    fig8_is_unchanged: "fig8" ["--scale", "0.03", "--days", "3"];
    fig9_is_unchanged: "fig9" ["--scale", "0.03", "--days-per-month", "1"];
    fig10_is_unchanged: "fig10" ["--scale", "0.03"];
    table1_is_unchanged: "table1" ["--scale", "0.03"];
    headline_is_unchanged: "headline" ["--scale", "0.1"];
    exchanges_is_unchanged: "exchanges" ["--scale", "0.08"];
    ablations_is_unchanged: "ablations" ["--scale", "0.03"];
}
