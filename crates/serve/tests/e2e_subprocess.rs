//! End-to-end over the real process boundary: spawn the built
//! `kbcast-serve` binary, drive sessions through its stdin/stdout, and
//! pin that the outcomes equal the in-process run exactly. Also pins
//! the robustness contract at the process level — garbage on stdin must
//! produce error responses, never an exit.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};

use kbcast_serve::driver::{drive_sessions, run_script, FaultFlip, Transport, WorkloadSpec};
use kbcast_serve::json::Json;

fn serve_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_kbcast-serve"))
}

fn spec(protocol: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        topology: "grid(3x4)".into(),
        protocol: protocol.into(),
        seed,
        lambda: 0.006,
        window: 2_500,
        flip: Some(FaultFlip {
            spec: "uniform:rate=0.02".into(),
            at: 800,
            recover: Some(2_000),
        }),
        drain_rounds: 400_000,
        verify: true,
        batch: 64,
        churn: None,
    }
}

#[test]
fn child_process_sessions_match_in_process_sessions_exactly() {
    let scripts: Vec<Vec<String>> = [spec("stream-seq", 9), spec("stream-seq", 10)]
        .iter()
        .map(|s| s.script().unwrap())
        .collect();
    let over_pipes = drive_sessions(&scripts, Some(serve_bin())).unwrap();
    let embedded = drive_sessions(&scripts, None).unwrap();
    assert_eq!(
        over_pipes, embedded,
        "the process boundary changed session outcomes"
    );
    assert!(over_pipes.all_delivered(), "{}", over_pipes.to_text());
    assert!(over_pipes.packets() >= 10);
}

#[test]
fn the_binary_survives_garbage_and_still_serves() {
    let mut child = Command::new(serve_bin())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    fn ask(
        stdin: &mut std::process::ChildStdin,
        stdout: &mut BufReader<std::process::ChildStdout>,
        line: &str,
    ) -> String {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let mut resp = String::new();
        assert!(
            stdout.read_line(&mut resp).unwrap() > 0,
            "service exited on {line:?}"
        );
        resp.trim_end().to_string()
    }

    for garbage in [
        "{not json",
        r#"{"op":"inject","node":0,"payload":[1]}"#,
        r#"{"op":"warp"}"#,
        "[]",
    ] {
        let resp = ask(&mut stdin, &mut stdout, garbage);
        assert!(
            resp.contains(r#""ok":false"#),
            "{garbage:?} should err, got {resp}"
        );
    }
    // Blank lines are skipped, not answered — probe liveness with a
    // real request instead.
    writeln!(stdin).unwrap();
    let resp = ask(
        &mut stdin,
        &mut stdout,
        r#"{"op":"init","topology":"path(n=5)","protocol":"stream-seq","seed":1,"id":"alive"}"#,
    );
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    assert!(resp.contains(r#""id":"alive""#), "{resp}");
    let resp = ask(&mut stdin, &mut stdout, r#"{"op":"shutdown"}"#);
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let status = child.wait().unwrap();
    assert!(status.success(), "service exited with {status:?}");
}

#[test]
fn transport_surfaces_error_responses_with_request_context() {
    let mut t = Transport::spawn(serve_bin()).unwrap();
    let script = vec![r#"{"op":"tick"}"#.to_string()];
    let err = run_script(&mut t, &script, None).unwrap_err();
    assert!(
        err.contains("no session"),
        "error should carry the service's message: {err}"
    );
    t.close();
}

/// A session is fixed by `init` and the request sequence: an `init`
/// without `verify`/`trace` switches runs unverified and untraced even
/// when the process environment carries the experiment binaries'
/// `KB_VERIFY`/`KB_TRACE` switches. `scripts/check.sh` replays the same
/// script with and without them and compares the responses.
#[test]
fn absent_switches_ignore_the_environment() {
    let mut child = Command::new(serve_bin())
        .envs([("KB_TRACE", "1"), ("KB_VERIFY", "1")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let script = include_bytes!("switchless.req.jsonl");
    child.stdin.take().unwrap().write_all(script).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "service exited with {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    let snapshot = text
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|doc| doc.get("op").and_then(Json::as_str) == Some("snapshot"))
        .unwrap_or_else(|| panic!("no snapshot response in {text}"));
    assert_eq!(snapshot.get("round").and_then(Json::as_u64), Some(200));
    assert_eq!(snapshot.get("trace"), Some(&Json::Null), "{text}");
}
