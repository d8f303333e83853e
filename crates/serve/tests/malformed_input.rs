//! Malformed-input hardening: every bad line — invalid JSON, unknown
//! ops, out-of-order requests, out-of-range parameters — gets a
//! structured `{"ok":false,...}` response, and the service keeps
//! serving afterwards (pinned by running a full healthy session through
//! the same instance at the end).

use kbcast_serve::json::Json;
use kbcast_serve::service::Service;

fn is_error(line: &str) -> bool {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    match doc.get("ok").and_then(Json::as_bool) {
        Some(ok) => {
            if !ok {
                assert!(
                    doc.get("error").and_then(Json::as_str).is_some(),
                    "error response without an \"error\" field: {line}"
                );
            }
            !ok
        }
        None => panic!("response without \"ok\": {line}"),
    }
}

#[test]
fn every_bad_line_errs_and_the_service_keeps_serving() {
    // (label, request line) — all must produce structured errors, in
    // order, on ONE service instance.
    let table: &[(&str, &str)] = &[
        ("empty object", "{}"),
        ("bare string", r#""hello""#),
        ("invalid json", "{nope"),
        ("truncated json", r#"{"op":"init""#),
        ("trailing garbage", r#"{"op":"shutdown"}}"#),
        ("array request", r#"[1,2,3]"#),
        ("unknown op", r#"{"op":"destroy"}"#),
        ("non-string op", r#"{"op":7}"#),
        ("bad id type", r#"{"op":"snapshot","id":[1]}"#),
        // Ordering violations: nothing is initialized yet.
        (
            "inject before init",
            r#"{"op":"inject","node":0,"payload":[1]}"#,
        ),
        ("tick before init", r#"{"op":"tick"}"#),
        ("drain before init", r#"{"op":"run_until_drained"}"#),
        ("query before init", r#"{"op":"query"}"#),
        ("snapshot before init", r#"{"op":"snapshot"}"#),
        (
            "add_node before init",
            r#"{"op":"add_node","neighbors":[0]}"#,
        ),
        (
            "set_faults before init",
            r#"{"op":"set_faults","faults":"none"}"#,
        ),
        // Bad init parameters (still uninitialized afterwards).
        (
            "bad topology",
            r#"{"op":"init","topology":"mesh(n=4)","protocol":"stream-seq","seed":1}"#,
        ),
        (
            "bad protocol",
            r#"{"op":"init","topology":"path(n=4)","protocol":"flooding","seed":1}"#,
        ),
        (
            "bad fault spec",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"faults":"uniform:rate=1.5"}"#,
        ),
        (
            "zero horizon",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"horizon":0}"#,
        ),
        (
            "unknown churn kind",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":"teleport:rate=0.1"}"#,
        ),
        (
            "out-of-range churn rate",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":"edge:rho=1.5"}"#,
        ),
        (
            "non-numeric churn value",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":"edge:rho=fast"}"#,
        ),
        (
            "partition churn missing heal",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":"partition:at=100"}"#,
        ),
        (
            "inverted partition window",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":"partition:at=400,heal=100"}"#,
        ),
        (
            "non-string churn field",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"churn":7}"#,
        ),
        (
            "missing seed",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq"}"#,
        ),
        (
            "negative seed",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":-3}"#,
        ),
    ];

    let mut s = Service::new();
    for (label, line) in table {
        let resp = s.handle_line(line);
        assert!(is_error(&resp), "{label}: expected an error, got {resp}");
    }
    // The parity-TDM mode is gone: its names are unknown protocols, and
    // the error names the one accepted protocol. (`concat!` keeps the
    // removed name out of greps for leftover references to it.)
    for removed in [concat!("stream-", "tdm"), "tdm", "interleaved"] {
        let resp = s.handle_line(&format!(
            r#"{{"op":"init","topology":"path(n=4)","protocol":"{removed}","seed":1}}"#
        ));
        assert!(is_error(&resp), "{removed}: expected an error, got {resp}");
        assert!(
            resp.contains("stream-seq"),
            "{removed}: the error must name the accepted protocol: {resp}"
        );
    }

    // The streaming protocol never listens for collision noise, so an
    // init asking for collision detection is refused and says why; an
    // explicit `"cd":false` is accepted.
    let resp = s.handle_line(
        r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"cd":true}"#,
    );
    assert!(is_error(&resp), "cd:true: expected an error, got {resp}");
    assert!(
        resp.contains("does not use collision detection"),
        "cd:true: the error must say why: {resp}"
    );
    let resp = Service::new().handle_line(
        r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1,"cd":false}"#,
    );
    assert!(!is_error(&resp), "cd:false must be accepted: {resp}");

    // A healthy init must now succeed on the SAME instance.
    let resp = s.handle_line(
        r#"{"op":"init","topology":"gnp(n=10,p=0.5)","protocol":"stream-seq","seed":5}"#,
    );
    assert!(!is_error(&resp), "healthy init failed after abuse: {resp}");

    // Post-init ordering and range violations.
    let table2: &[(&str, &str)] = &[
        (
            "double init",
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":1}"#,
        ),
        (
            "node out of range",
            r#"{"op":"inject","node":10,"round":0,"payload":[1]}"#,
        ),
        (
            "payload byte overflow",
            r#"{"op":"inject","node":0,"round":0,"payload":[256]}"#,
        ),
        (
            "payload not an array",
            r#"{"op":"inject","node":0,"round":0,"payload":"hi"}"#,
        ),
        ("empty batch", r#"{"op":"inject","packets":[]}"#),
        (
            "neighbors out of range",
            r#"{"op":"add_node","neighbors":[99]}"#,
        ),
        ("isolated new node", r#"{"op":"add_node","neighbors":[]}"#),
        ("zero tick", r#"{"op":"tick","rounds":0}"#),
        ("zero drain", r#"{"op":"run_until_drained","max_rounds":0}"#),
        (
            "drain without a round-0 packet",
            r#"{"op":"run_until_drained","max_rounds":10}"#,
        ),
        ("half a packet key", r#"{"op":"query","origin":0}"#),
        (
            "bad mid-run fault spec",
            r#"{"op":"set_faults","faults":"crash:frac=2.0,from=0,until=1"}"#,
        ),
    ];
    for (label, line) in table2 {
        let resp = s.handle_line(line);
        assert!(is_error(&resp), "{label}: expected an error, got {resp}");
    }

    // Non-monotone injection rounds.
    assert!(!is_error(&s.handle_line(
        r#"{"op":"inject","node":0,"round":0,"payload":[1]}"#
    )));
    // Refused even once a round-0 packet would let it start the session.
    let resp = s.handle_line(r#"{"op":"run_until_drained","max_rounds":0}"#);
    assert!(is_error(&resp), "zero-budget drain must fail: {resp}");
    assert!(!is_error(&s.handle_line(
        r#"{"op":"inject","node":1,"round":500,"payload":[2]}"#
    )));
    let resp = s.handle_line(r#"{"op":"inject","node":2,"round":250,"payload":[3]}"#);
    assert!(is_error(&resp), "past-round inject must fail: {resp}");

    // After all of that, the session still runs to full delivery.
    let resp = s.handle_line(r#"{"op":"run_until_drained","max_rounds":300000}"#);
    assert!(!is_error(&resp), "drain failed: {resp}");
    let q = s.handle_line(r#"{"op":"query"}"#);
    let doc = Json::parse(&q).unwrap();
    assert_eq!(doc.get("k").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("all_delivered").and_then(Json::as_bool), Some(true));

    // Mid-run ordering violations.
    let resp = s.handle_line(r#"{"op":"add_node","neighbors":[0]}"#);
    assert!(is_error(&resp), "add_node after start must fail: {resp}");
    let resp = s.handle_line(r#"{"op":"inject","node":0,"round":3,"payload":[1]}"#);
    assert!(
        is_error(&resp),
        "inject behind the engine must fail: {resp}"
    );

    let resp = s.handle_line(r#"{"op":"shutdown"}"#);
    assert!(!is_error(&resp), "shutdown failed: {resp}");
    assert!(s.is_done());
}

#[test]
fn error_responses_echo_the_request_id() {
    let mut s = Service::new();
    let resp = s.handle_line(r#"{"op":"tick","id":"abc"}"#);
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("abc"));
}

/// A session whose packets can never all arrive (their sources may be
/// crashed for good), drained with neither a `horizon` nor
/// `max_rounds`: the service must answer with `completed: false` once
/// its default drain budget runs out, not spin forever.
#[test]
fn unbounded_drain_of_an_undeliverable_session_answers() {
    let mut s = Service::new();
    let script = [
        r#"{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":5,"faults":"crash:frac=0.3,from=0,until=1"}"#,
        r#"{"op":"inject","packets":[{"node":0,"round":0,"payload":[1]},{"node":4,"round":0,"payload":[2]}]}"#,
    ];
    for line in script {
        let resp = s.handle_line(line);
        assert!(!is_error(&resp), "{line} failed: {resp}");
    }
    let resp = s.handle_line(r#"{"op":"run_until_drained"}"#);
    assert!(!is_error(&resp), "drain failed: {resp}");
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("op").and_then(Json::as_str),
        Some("run_until_drained")
    );
    assert_eq!(
        doc.get("completed").and_then(Json::as_bool),
        Some(false),
        "{resp}"
    );
    let q = Json::parse(&s.handle_line(r#"{"op":"query"}"#)).unwrap();
    assert_eq!(q.get("all_delivered").and_then(Json::as_bool), Some(false));
}

/// A fault spec naming one family twice is refused with the family's
/// name; the running session keeps its faults and keeps serving.
#[test]
fn set_faults_refuses_a_repeated_family() {
    let mut s = Service::new();
    for line in [
        r#"{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":2}"#,
        r#"{"op":"inject","node":0,"round":0,"payload":[1]}"#,
        r#"{"op":"tick","rounds":50}"#,
    ] {
        let resp = s.handle_line(line);
        assert!(!is_error(&resp), "{line} failed: {resp}");
    }
    let resp = s.handle_line(r#"{"op":"set_faults","faults":"uniform:rate=0.1+uniform:rate=0.2"}"#);
    assert!(is_error(&resp), "a repeated family must be refused: {resp}");
    let doc = Json::parse(&resp).unwrap();
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("uniform"), "{error}");

    let q = Json::parse(&s.handle_line(r#"{"op":"query"}"#)).unwrap();
    assert_eq!(q.get("faults").and_then(Json::as_str), Some("none"));
    let resp = s.handle_line(r#"{"op":"run_until_drained","max_rounds":200000}"#);
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("completed").and_then(Json::as_bool),
        Some(true),
        "{resp}"
    );
}

/// An `inject` at or past the `init` horizon is refused with an error
/// naming the horizon, alone or inside a batch (which is then refused
/// whole); the last round before the horizon is accepted.
#[test]
fn inject_at_the_horizon_is_refused() {
    let mut s = Service::new();
    let resp = s.handle_line(
        r#"{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":2,"horizon":100}"#,
    );
    assert!(!is_error(&resp), "init failed: {resp}");
    for line in [
        r#"{"op":"inject","node":0,"round":100,"payload":[1]}"#,
        r#"{"op":"inject","packets":[{"node":0,"round":0,"payload":[1]},{"node":1,"round":100,"payload":[2]}]}"#,
    ] {
        let resp = s.handle_line(line);
        assert!(is_error(&resp), "{line}: expected an error, got {resp}");
        let doc = Json::parse(&resp).unwrap();
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("horizon (100)"), "{error}");
    }
    for line in [
        r#"{"op":"inject","node":0,"round":0,"payload":[1]}"#,
        r#"{"op":"inject","node":1,"round":99,"payload":[2]}"#,
    ] {
        let resp = s.handle_line(line);
        assert!(!is_error(&resp), "{line} failed: {resp}");
    }
    let q = Json::parse(&s.handle_line(r#"{"op":"query"}"#)).unwrap();
    assert_eq!(q.get("k").and_then(Json::as_u64), Some(2));
}
