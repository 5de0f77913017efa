//! Integration tests for the observability layer: concurrency safety of the
//! registry, JSONL sink schema round-trips, and span-derived durations.

use kgfd_obs::{
    registry, scoped, span, DatasetShape, Event, Field, JsonlSink, Level, Payload, RunManifest,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Tests that install a process observer must not interleave.
static OBSERVER_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    OBSERVER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn counters_are_atomic_under_concurrent_writers() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let before = registry().counter("test.atomic.hits").get();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let c = registry().counter("test.atomic.hits");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    let after = registry().counter("test.atomic.hits").get();
    assert_eq!(after - before, THREADS as u64 * PER_THREAD);
}

#[test]
fn histograms_are_consistent_under_concurrent_writers() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5_000;
    let h = registry().histogram("test.atomic.latency");
    let before = h.count();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record((t * PER_THREAD + i + 1) as f64);
                }
            });
        }
    });
    assert_eq!(h.count() - before, (THREADS * PER_THREAD) as u64);
    let expected: f64 = (1..=THREADS * PER_THREAD).map(|v| v as f64).sum();
    assert!((h.sum() - expected).abs() < 1e-6 * expected);
}

#[test]
fn jsonl_sink_lines_round_trip_through_the_event_schema() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("kgfd-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.jsonl");

    {
        let _guard = scoped(Arc::new(JsonlSink::create(&path).unwrap()));
        kgfd_obs::warn("a degraded thing happened");
        kgfd_obs::metric(
            "embed.train.epoch_loss",
            0.125,
            vec![Field::new("epoch", 3u64)],
        );
        let sp = span!("discover.generation", relation = 7u64);
        sp.finish();
        RunManifest {
            command: "discover".to_string(),
            crate_version: "0.1.0".to_string(),
            strategy: "lcwa".to_string(),
            model: "transe".to_string(),
            seed: 42,
            dataset: DatasetShape {
                entities: 14,
                relations: 55,
                triples: 483,
            },
            config: vec![Field::new("top_n", 10u64)],
            wall_clock_s: 1.5,
            recoveries: Vec::new(),
            resumed_from: None,
            trace: None,
            pool: None,
        }
        .emit();
    }

    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|line| {
            let value: serde_json::Value = serde_json::from_str(line).expect("line parses");
            serde::Deserialize::deserialize(&value).expect("line matches the Event schema")
        })
        .collect();
    assert_eq!(events.len(), 4);

    let run = &events[0].run;
    assert!(!run.is_empty());
    for (i, e) in events.iter().enumerate() {
        assert_eq!(&e.run, run, "all lines share the run id");
        if i > 0 {
            assert!(e.t_us >= events[i - 1].t_us, "timestamps are monotonic");
        }
    }

    match &events[0].payload {
        Payload::Message { level, text } => {
            assert_eq!(*level, Level::Warn);
            assert_eq!(text, "a degraded thing happened");
        }
        other => panic!("expected Message, got {other:?}"),
    }
    match &events[1].payload {
        Payload::Metric {
            name,
            value,
            fields,
        } => {
            assert_eq!(name, "embed.train.epoch_loss");
            assert_eq!(*value, 0.125);
            assert_eq!(fields, &[Field::new("epoch", 3u64)]);
        }
        other => panic!("expected Metric, got {other:?}"),
    }
    match &events[2].payload {
        Payload::SpanEnd { name, fields, .. } => {
            assert_eq!(name, "discover.generation");
            assert_eq!(fields, &[Field::new("relation", 7u64)]);
        }
        other => panic!("expected SpanEnd, got {other:?}"),
    }
    match &events[3].payload {
        Payload::Manifest(m) => {
            assert_eq!(m.command, "discover");
            assert_eq!(m.strategy, "lcwa");
            assert_eq!(m.seed, 42);
            assert_eq!(m.dataset.triples, 483);
            assert_eq!(m.config, vec![Field::new("top_n", 10u64)]);
        }
        other => panic!("expected Manifest, got {other:?}"),
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn failing_sink_writes_do_not_panic_and_surface_a_recovery() {
    // /dev/full accepts the open but fails every write with ENOSPC —
    // exactly the disk-full scenario the sink must survive.
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    let _serial = serial();
    // Clear any recoveries left over from other tests in this process.
    let _ = kgfd_obs::drain_recoveries();
    {
        let sink = JsonlSink::create("/dev/full").expect("open /dev/full");
        let _guard = scoped(Arc::new(sink));
        // Each event triggers a flush → ENOSPC. None of these may panic.
        for i in 0..5 {
            kgfd_obs::metric("test.sink.fail", i as f64, vec![]);
        }
    }
    let recoveries = kgfd_obs::drain_recoveries();
    assert_eq!(
        recoveries.len(),
        1,
        "exactly one recovery per failing sink, not one per event: {recoveries:?}"
    );
    assert!(
        recoveries[0].contains("write failed"),
        "recovery names the failure: {recoveries:?}"
    );
}

#[test]
fn fanout_keeps_delivering_past_a_failing_sink() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    let _serial = serial();
    let _ = kgfd_obs::drain_recoveries();
    let dir = std::env::temp_dir().join(format!("kgfd-obs-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good_path = dir.join("good.jsonl");
    {
        let broken = Arc::new(JsonlSink::create("/dev/full").unwrap());
        let good = Arc::new(JsonlSink::create(&good_path).unwrap());
        let _guard = scoped(Arc::new(kgfd_obs::Fanout::new(vec![broken, good])));
        kgfd_obs::warn("must reach the good sink");
        kgfd_obs::metric("test.fanout.value", 1.0, vec![]);
    }
    let text = std::fs::read_to_string(&good_path).unwrap();
    assert_eq!(
        text.lines().count(),
        2,
        "the healthy sink got every event despite its sibling failing"
    );
    assert!(!kgfd_obs::drain_recoveries().is_empty());
    std::fs::remove_file(&good_path).ok();
}

#[test]
fn dropping_a_sink_leaves_no_truncated_final_line() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("kgfd-obs-dropflush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dropflush.jsonl");
    {
        let _guard = scoped(Arc::new(JsonlSink::create(&path).unwrap()));
        // A manifest is the largest single line the pipeline writes — the
        // likeliest to straddle a BufWriter boundary if flushing is broken.
        let mut manifest = RunManifest::new("drop-flush-test");
        manifest.config = (0..64)
            .map(|i| Field::new(format!("key_{i}"), format!("value_{i}")))
            .collect();
        manifest.emit();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.ends_with('\n'),
        "file must end with a complete newline-terminated record"
    );
    for line in text.lines() {
        let value: serde_json::Value = serde_json::from_str(line).expect("no truncated JSON line");
        assert!(value.get("payload").is_some());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn spans_feed_duration_histograms() {
    let _serial = serial();
    let _guard = scoped(Arc::new(kgfd_obs::NullObserver));
    let before = registry().histogram("test.span.duration_us").count();
    {
        let sp = span!("test.span");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let took = sp.finish();
        assert!(took >= std::time::Duration::from_millis(2));
    }
    {
        // Dropping without finish() must still record.
        let _sp = span!("test.span");
    }
    let h = registry().histogram("test.span.duration_us");
    assert_eq!(h.count() - before, 2);
    // The slept span's duration (≥2000us) should dominate the histogram max.
    assert!(h.quantile(1.0).unwrap() >= 1_000.0);
}

#[test]
fn scoped_observer_restores_the_previous_observer() {
    let _serial = serial();

    struct CountingObserver(std::sync::atomic::AtomicUsize);
    impl kgfd_obs::Observer for CountingObserver {
        fn event(&self, _event: &Event) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    let outer = Arc::new(CountingObserver(std::sync::atomic::AtomicUsize::new(0)));
    let _outer_guard = scoped(Arc::clone(&outer) as Arc<dyn kgfd_obs::Observer>);
    kgfd_obs::info("seen by outer");
    {
        let _inner_guard = scoped(Arc::new(kgfd_obs::NullObserver));
        kgfd_obs::info("swallowed by inner");
    }
    kgfd_obs::info("seen by outer again");
    assert_eq!(outer.0.load(std::sync::atomic::Ordering::Relaxed), 2);
}
