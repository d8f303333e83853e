//! Golden session transcripts: pinned request files must produce the
//! pinned response files, byte for byte — the streaming protocol
//! (`stream-seq`) exercised by a *sequential* script (queue everything,
//! then one drain) and an *interleaved* script (injection, ticks, a
//! fault flip and queries woven together; not a scheduling mode). Any change to response wording, field
//! order, or simulation outcomes shows up as a diff here.
//!
//! To regenerate after an intentional protocol change:
//! `KB_BLESS=1 cargo test -p kbcast-serve --test golden_session`

use std::path::PathBuf;

use kbcast_serve::service::Service;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The sequential script: the whole workload is queued up front.
fn sequential_script(protocol: &str, seed: u64) -> Vec<String> {
    vec![
        format!(
            r#"{{"op":"init","topology":"gnp(n=10,p=0.5)","protocol":"{protocol}","seed":{seed},"verify":true,"trace":false,"id":"init"}}"#
        ),
        r#"{"op":"inject","packets":[{"node":0,"round":0,"payload":[1]},{"node":3,"round":0,"payload":[2,2]},{"node":7,"round":400,"payload":[3]}],"id":1}"#.into(),
        r#"{"op":"query","id":2}"#.into(),
        r#"{"op":"run_until_drained","max_rounds":300000,"id":3}"#.into(),
        r#"{"op":"query","id":4}"#.into(),
        r#"{"op":"query","origin":3,"seq":0,"id":5}"#.into(),
        r#"{"op":"snapshot","id":6}"#.into(),
        r#"{"op":"shutdown","id":7}"#.into(),
    ]
}

/// The interleaved script: arrivals, exact ticks, a mid-run fault flip
/// and recovery, and queries woven between run requests.
fn interleaved_script(protocol: &str, seed: u64) -> Vec<String> {
    vec![
        format!(
            r#"{{"op":"init","topology":"grid(3x4)","protocol":"{protocol}","seed":{seed},"faults":"none","verify":true,"id":"init"}}"#
        ),
        r#"{"op":"inject","node":0,"round":0,"payload":[17],"id":1}"#.into(),
        r#"{"op":"tick","rounds":700,"id":2}"#.into(),
        r#"{"op":"set_faults","faults":"uniform:rate=0.04","id":3}"#.into(),
        r#"{"op":"inject","packets":[{"node":5,"payload":[5,5]},{"node":11,"payload":[11]}],"id":4}"#.into(),
        r#"{"op":"tick","rounds":1500,"id":5}"#.into(),
        r#"{"op":"set_faults","faults":"none","id":6}"#.into(),
        r#"{"op":"query","id":7}"#.into(),
        r#"{"op":"run_until_drained","max_rounds":300000,"id":8}"#.into(),
        r#"{"op":"query","id":9}"#.into(),
        r#"{"op":"shutdown","id":10}"#.into(),
    ]
}

fn transcript(script: &[String]) -> String {
    let mut s = Service::new();
    let mut out = String::new();
    for line in script {
        out.push_str(&s.handle_line(line));
        out.push('\n');
    }
    out
}

fn check(name: &str, script: &[String]) {
    let dir = golden_dir();
    let req_path = dir.join(format!("{name}.req.jsonl"));
    let resp_path = dir.join(format!("{name}.resp.jsonl"));
    let req_text: String = script.iter().map(|l| format!("{l}\n")).collect();
    if std::env::var_os("KB_BLESS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&req_path, &req_text).unwrap();
        std::fs::write(&resp_path, transcript(script)).unwrap();
        return;
    }
    // The pinned request file IS the script (so external consumers can
    // pipe it into the binary verbatim)...
    let pinned_req = std::fs::read_to_string(&req_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with KB_BLESS=1 to create)",
            req_path.display()
        )
    });
    assert_eq!(pinned_req, req_text, "{name}: request script drifted");
    // ...and replaying it must reproduce the pinned responses exactly.
    let pinned_resp = std::fs::read_to_string(&resp_path).unwrap();
    let got = transcript(script);
    assert_eq!(
        pinned_resp, got,
        "{name}: response transcript drifted from the golden file"
    );
}

#[test]
fn golden_stream_seq_sequential() {
    check("seq_sequential", &sequential_script("stream-seq", 2024));
}

#[test]
fn golden_stream_seq_interleaved() {
    check("seq_interleaved", &interleaved_script("stream-seq", 77));
}
