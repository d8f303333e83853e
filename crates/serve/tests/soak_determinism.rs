//! Soak determinism: replaying the same recorded session — twice in a
//! row, and under different `KBCAST_THREADS` settings — yields
//! *identical* delivery stats. Everything in a session derives from the
//! init seed and the request sequence; wall-clock and scheduling must
//! never leak into outcomes.

use kbcast_serve::driver::{drive_sessions, read_script, write_script, FaultFlip, WorkloadSpec};

fn scripts() -> Vec<Vec<String>> {
    (0..3u64)
        .map(|i| {
            WorkloadSpec {
                topology: "gnp(n=12,p=0.45)".into(),
                protocol: "stream-seq".into(),
                seed: 100 + i,
                lambda: 0.008,
                window: 3_000,
                flip: Some(FaultFlip {
                    spec: "uniform:rate=0.03".into(),
                    at: 1_000,
                    recover: Some(2_500),
                }),
                drain_rounds: 400_000,
                verify: i == 0,
                batch: 32,
                churn: None,
            }
            .script()
            .unwrap()
        })
        .collect()
}

#[test]
fn replaying_a_recorded_session_is_deterministic_across_runs_and_threads() {
    let scripts = scripts();

    // Scripts themselves are deterministic (record == regenerate).
    assert_eq!(scripts, self::scripts());

    // Round-trip one through the record/replay file format.
    let dir = std::env::temp_dir().join(format!("kbcast-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session0.jsonl");
    write_script(&path, &scripts[0]).unwrap();
    assert_eq!(read_script(&path).unwrap(), scripts[0]);
    let _ = std::fs::remove_dir_all(&dir);

    // The same fleet, twice, single-threaded.
    std::env::set_var("KBCAST_THREADS", "1");
    let first = drive_sessions(&scripts, None).unwrap();
    let second = drive_sessions(&scripts, None).unwrap();
    assert_eq!(first, second, "same-thread replay diverged");

    // And across worker counts.
    std::env::set_var("KBCAST_THREADS", "3");
    let third = drive_sessions(&scripts, None).unwrap();
    std::env::remove_var("KBCAST_THREADS");
    assert_eq!(first, third, "thread count leaked into outcomes");

    // The fleet actually did something: every session drained with the
    // mid-run fault flip in place.
    assert!(first.all_delivered(), "{}", first.to_text());
    assert!(
        first.packets() > 20,
        "workload too small: {}",
        first.packets()
    );
    assert!(first.max_latency().is_some());
}
