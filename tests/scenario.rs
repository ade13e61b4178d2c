//! Acceptance gates for the dial-scenario counterfactual engine
//! (ISSUE 9):
//!
//! (a) a no-intervention scenario's diff is empty and its counterfactual
//!     experiment bodies are byte-identical to the baseline's for every
//!     registry id;
//! (b) the shipped example scenarios produce stable, seed-deterministic
//!     diffs at pool widths 1 and 4;
//! (c) `GET /v1/scenario` on a real `dial serve --scenario` process
//!     returns the same bytes as `dial scenario run --json`.
//!
//! Plus the parser fixture sweep: every intervention kind parses from
//! its fixture file, and every malformed fixture fails with a
//! `file:line` diagnostic anchored to the offending line.

use dial_market::scenario::{compare, CompareError, CompareOptions, Scenario};
use dial_serve::transport;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenario_fixtures").join(name)
}

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples").join(name)
}

// ---------------------------------------------------------------- parser

#[test]
fn every_intervention_kind_parses_from_its_fixture() {
    for (file, kind) in [
        ("mandate.scn", "mandate"),
        ("demand_shock.scn", "demand_shock"),
        ("takedown.scn", "takedown"),
        ("sybil.scn", "sybil"),
    ] {
        let s = Scenario::load(&fixture(file))
            .unwrap_or_else(|e| panic!("fixture {file} must parse: {e}"));
        assert_eq!(s.interventions.len(), 1, "{file}");
        assert_eq!(s.interventions[0].kind(), kind, "{file}");
        assert!(!s.plan().is_factual(), "{file} must alter the plan");
    }
}

#[test]
fn malformed_fixtures_fail_with_file_line_diagnostics() {
    // (fixture, offending 1-based line, message fragment)
    let cases = [
        ("bad_unknown_key.scn", 6, "unknown key `severity`"),
        ("bad_month.scn", 4, "invalid month"),
        ("bad_duplicate.scn", 7, "duplicate intervention kind `demand_shock`"),
    ];
    for (file, line, needle) in cases {
        let path = fixture(file);
        let e = Scenario::load(&path).expect_err(file);
        assert_eq!(e.line, line, "{file}: {e}");
        assert!(e.message.contains(needle), "{file}: {e}");
        // The Display form is exactly `file:line: message` — what the CLI
        // prints and what editors can jump to.
        assert_eq!(e.to_string(), format!("{}:{}: {}", path.display(), line, e.message));
    }
}

// ------------------------------------------------- (a) identity baseline

#[test]
fn no_intervention_scenario_diffs_nothing_across_the_whole_registry() {
    let s = Scenario::parse("name: noop\nseed: 11\nscale: 0.01\n", "noop.scn").unwrap();
    assert!(s.plan().is_factual());
    let cmp = compare(&s, &CompareOptions { ids: Vec::new(), lca_classes: 3 }).unwrap();

    assert!(cmp.rows.len() >= 30, "expected the full registry, got {}", cmp.rows.len());
    assert_eq!(
        cmp.baseline.snapshot, cmp.counterfactual.snapshot,
        "identical runs must seal to the same fingerprint"
    );
    for row in &cmp.rows {
        assert_eq!(
            row.baseline, row.counterfactual,
            "experiment {} diverged under a no-op plan",
            row.id
        );
    }
    assert!(cmp.changed_ids().is_empty());
    assert!(cmp.to_json().contains("\"diff\":{}"));
}

// ------------------------------------- (b) deterministic example diffs

/// Runs `file` on a pool of the given width and returns the canonical
/// document bytes.
fn run_example_at_width(file: &str, threads: usize) -> String {
    let scn = Scenario::load(&example(file)).expect("example scenario parses");
    let pool = dial_par::Pool::new(threads);
    dial_par::with_pool(&pool, || {
        // A focused id set keeps the matrix fast while still covering
        // volume series, user cohorts, and the second-order stats.
        let ids = vec!["table1".to_string(), "fig2".to_string(), "fig7".to_string()];
        compare(&scn, &CompareOptions { ids, lca_classes: 3 }).expect("comparison runs").to_json()
    })
}

#[test]
fn example_scenarios_are_deterministic_across_runs_and_pool_widths() {
    for file in ["mandate_flip.scn", "demand_shock.scn"] {
        let runs: Vec<String> = (0..3).map(|_| run_example_at_width(file, 1)).collect();
        assert_eq!(runs[0], runs[1], "{file}: run-to-run drift at width 1");
        assert_eq!(runs[1], runs[2], "{file}: run-to-run drift at width 1");
        let wide = run_example_at_width(file, 4);
        assert_eq!(runs[0], wide, "{file}: pool width changed the diff document");
        // An intervention scenario must actually change something.
        assert!(!wide.contains("\"diff\":{}"), "{file}: expected a non-empty diff, got {wide}");
    }
}

#[test]
fn mandate_flip_keeps_setup_structure_and_demand_shock_lifts_covid_volume() {
    let flip = Scenario::load(&example("mandate_flip.scn")).unwrap();
    let cmp =
        compare(&flip, &CompareOptions { ids: vec!["table1".into()], lca_classes: 3 }).unwrap();
    assert_ne!(cmp.baseline.snapshot, cmp.counterfactual.snapshot);
    assert!(
        cmp.counterfactual.contracts < cmp.baseline.contracts,
        "no mandate => no compulsory-contract volume explosion ({} vs {})",
        cmp.counterfactual.contracts,
        cmp.baseline.contracts
    );

    let shock = Scenario::load(&example("demand_shock.scn")).unwrap();
    let cmp =
        compare(&shock, &CompareOptions { ids: vec!["table1".into()], lca_classes: 3 }).unwrap();
    assert!(
        cmp.counterfactual.contracts > cmp.baseline.contracts,
        "a >1 demand factor must add contracts ({} vs {})",
        cmp.counterfactual.contracts,
        cmp.baseline.contracts
    );
}

#[test]
fn unknown_experiment_ids_are_reported_together() {
    let s = Scenario::parse("name: u\nscale: 0.01\n", "u.scn").unwrap();
    let opts = CompareOptions { ids: vec!["table1".into(), "nope".into()], lca_classes: 3 };
    match compare(&s, &opts) {
        Err(CompareError::UnknownExperiments(ids)) => assert_eq!(ids, vec!["nope".to_string()]),
        other => panic!("expected UnknownExperiments, got {other:?}"),
    }
}

// ----------------------------------------- (c) serve/CLI byte equality

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let reply = transport::get_with_timeout(&addr.to_string(), path, Duration::from_secs(120))
        .expect("GET");
    (reply.status, reply.text())
}

#[test]
fn v1_scenario_returns_the_same_bytes_as_the_cli_json_run() {
    let scn_path = example("mandate_flip.scn");

    // The CLI side: `dial scenario run --json` (threads pinned so the
    // document is the deterministic reference, not a variable).
    let out = Command::new(env!("CARGO_BIN_EXE_dial"))
        .arg("scenario")
        .arg("run")
        .arg(&scn_path)
        .args(["--experiment", "table1,fig2", "--classes", "3", "--threads", "2", "--json"])
        .output()
        .expect("run dial scenario run");
    assert!(out.status.success(), "scenario run failed: {}", String::from_utf8_lossy(&out.stderr));
    let cli_doc = String::from_utf8(out.stdout).expect("utf8 document").trim_end().to_string();

    // The serve side: a real process with the scenario registered.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dial"))
        .args(["serve", "--live", "--port", "0", "--threads", "2", "--classes", "3"])
        .arg("--scenario")
        .arg(&scn_path)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dial serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let mut saw_registration = false;
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("dial serve exited before announcing its address")
            .expect("read child stderr");
        if line.starts_with("scenario ") && line.contains("registered") {
            saw_registration = true;
        }
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };
    assert!(saw_registration, "serve must announce the registered scenario");
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    let (status, served) = http_get(addr, "/v1/scenario?ids=table1,fig2");
    assert_eq!(status, 200, "body: {served}");
    assert_eq!(served, cli_doc, "/v1/scenario bytes must match `dial scenario run --json`");

    // Second request: a cache hit, still the same bytes.
    let (status, again) = http_get(addr, "/v1/scenario?ids=table1,fig2");
    assert_eq!(status, 200);
    assert_eq!(again, served, "cache hit changed the document");

    // Error surface: unknown id -> 404, never a panic.
    let (status, err) = http_get(addr, "/v1/scenario?ids=definitely-not-real");
    assert_eq!(status, 404, "body: {err}");
    assert!(err.contains("unknown_experiment"), "body: {err}");

    let _ = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
    let _ = child.wait();
    drain.join().unwrap();
}

#[test]
fn servers_without_a_scenario_answer_409() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dial"))
        .args(["serve", "--live", "--port", "0", "--threads", "1"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dial serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr: SocketAddr = loop {
        let line = lines.next().expect("no address announced").expect("read stderr");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
    let (status, body) = http_get(addr, "/v1/scenario");
    assert_eq!(status, 409, "body: {body}");
    assert!(body.contains("no_scenario"), "body: {body}");
    let _ = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
    let _ = child.wait();
    drain.join().unwrap();
}
