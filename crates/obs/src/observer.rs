//! Observer trait, the built-in observers, and the process-wide pipeline
//! (run id, monotonic clock, current observer).

use crate::event::{Event, Level, Payload};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant, SystemTime};

/// A consumer of pipeline [`Event`]s.
///
/// Implementations must be cheap when they ignore an event — the hot paths
/// call [`Observer::event`] unconditionally.
pub trait Observer: Send + Sync {
    /// Delivers one event.
    fn event(&self, event: &Event);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn event(&self, _event: &Event) {}
}

/// Renders events as human-readable stderr lines.
///
/// `Warn` and `Error` messages are always printed; everything else is
/// rate-limited to one line per interval, and only printed at all when
/// constructed with [`StderrProgress::new`] (the [`StderrProgress::warnings_only`]
/// variant — the default observer — keeps stderr clean on happy paths).
pub struct StderrProgress {
    min_level: Level,
    interval: Duration,
    last: Mutex<Option<Instant>>,
}

impl StderrProgress {
    /// Full progress output, rate-limited to ~5 lines/second.
    pub fn new() -> Self {
        StderrProgress {
            min_level: Level::Progress,
            interval: Duration::from_millis(200),
            last: Mutex::new(None),
        }
    }

    /// Only `Warn`/`Error` messages (the default observer's behaviour).
    pub fn warnings_only() -> Self {
        StderrProgress {
            min_level: Level::Warn,
            interval: Duration::ZERO,
            last: Mutex::new(None),
        }
    }

    /// True when a rate-limited line may be printed now.
    fn admit(&self) -> bool {
        let mut last = self.last.lock().unwrap_or_else(PoisonError::into_inner);
        match *last {
            Some(t) if t.elapsed() < self.interval => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }
}

impl Default for StderrProgress {
    fn default() -> Self {
        StderrProgress::new()
    }
}

impl Observer for StderrProgress {
    fn event(&self, event: &Event) {
        match &event.payload {
            Payload::Message { level, text } => {
                if *level >= Level::Warn {
                    eprintln!("{}: {text}", level_name(*level));
                } else if *level >= self.min_level && self.admit() {
                    eprintln!("{text}");
                }
            }
            Payload::SpanEnd {
                name,
                duration_us,
                fields,
                ..
            } if self.min_level <= Level::Progress && self.admit() => {
                eprintln!(
                    "[{:>10.3}s] {name} {} ({:.3}s)",
                    event.t_us as f64 / 1e6,
                    render_fields(fields),
                    *duration_us as f64 / 1e6
                );
            }
            Payload::Metric {
                name,
                value,
                fields,
            } if self.min_level <= Level::Progress && self.admit() => {
                eprintln!(
                    "[{:>10.3}s] {name} = {value:.6} {}",
                    event.t_us as f64 / 1e6,
                    render_fields(fields)
                );
            }
            _ => {}
        }
    }
}

fn level_name(level: Level) -> &'static str {
    match level {
        Level::Progress => "progress",
        Level::Info => "info",
        Level::Warn => "warning",
        Level::Error => "error",
    }
}

fn render_fields(fields: &[crate::Field]) -> String {
    fields
        .iter()
        .map(|f| format!("{}={}", f.key, f.value))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes one serde-serialized [`Event`] per line.
///
/// Every line is flushed immediately so the file is complete even if the
/// process exits without dropping the sink.
///
/// A failing write (disk full, file descriptor yanked) never panics the
/// run: the first failure lands one entry in the process recovery log
/// ([`record_recovery`]) — so the condition surfaces in the next run
/// manifest — and subsequent failures are dropped silently rather than
/// flooding the log once per event.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    path: String,
    failed: std::sync::atomic::AtomicBool,
}

impl JsonlSink {
    /// Creates (truncating) the sink file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            path: path.display().to_string(),
            failed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    fn note_failure(&self, err: &std::io::Error) {
        use std::sync::atomic::Ordering;
        if !self.failed.swap(true, Ordering::Relaxed) {
            record_recovery(format!(
                "jsonl sink '{}' write failed ({err}); further events to this sink may be lost",
                self.path
            ));
        }
    }
}

impl Observer for JsonlSink {
    fn event(&self, event: &Event) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(err) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                self.note_failure(&err);
            }
        }
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(err) = out.flush() {
            self.note_failure(&err);
        }
    }
}

/// Delivers every event to several observers in order.
pub struct Fanout {
    observers: Vec<Arc<dyn Observer>>,
}

impl Fanout {
    /// Combines `observers` (useful for `--progress` + `--metrics-out`).
    pub fn new(observers: Vec<Arc<dyn Observer>>) -> Self {
        Fanout { observers }
    }
}

impl Observer for Fanout {
    fn event(&self, event: &Event) {
        for o in &self.observers {
            o.event(event);
        }
    }

    fn flush(&self) {
        for o in &self.observers {
            o.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide pipeline
// ---------------------------------------------------------------------------

static OBSERVER: RwLock<Option<Arc<dyn Observer>>> = RwLock::new(None);
static DEFAULT: OnceLock<Arc<dyn Observer>> = OnceLock::new();
static CLOCK: OnceLock<Instant> = OnceLock::new();
static RUN_ID: OnceLock<String> = OnceLock::new();

fn default_observer() -> Arc<dyn Observer> {
    Arc::clone(DEFAULT.get_or_init(|| Arc::new(StderrProgress::warnings_only())))
}

/// The currently installed observer (warnings-only stderr when none was
/// installed).
pub fn observer() -> Arc<dyn Observer> {
    OBSERVER
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(Arc::clone)
        .unwrap_or_else(default_observer)
}

/// Installs `o` as the process observer, returning the previous one.
fn set_observer(o: Arc<dyn Observer>) -> Arc<dyn Observer> {
    OBSERVER
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(o)
        .unwrap_or_else(default_observer)
}

/// Installs `o` until the returned guard drops, then restores the previous
/// observer (flushing `o` first). Used by the harness to give each grid
/// cell its own sink.
pub fn scoped(o: Arc<dyn Observer>) -> ScopedObserver {
    let previous = set_observer(o);
    ScopedObserver {
        previous: Some(previous),
    }
}

/// Guard restoring the previously installed observer on drop.
pub struct ScopedObserver {
    previous: Option<Arc<dyn Observer>>,
}

impl Drop for ScopedObserver {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            let current = set_observer(previous);
            current.flush();
        }
    }
}

/// Microseconds since the observability clock started (first call wins).
pub fn clock_us() -> u64 {
    CLOCK.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// This process's run identifier (wall-clock nanos ⊕ pid, hex).
pub fn run_id() -> &'static str {
    RUN_ID.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        format!("{:016x}", nanos ^ ((std::process::id() as u64) << 48))
    })
}

/// Process-wide log of recovery actions (e.g. a corrupt model-zoo cache
/// entry evicted and retrained). Libraries append with [`record_recovery`];
/// [`crate::RunManifest::emit`] drains the log into the manifest, so a
/// recovery that happened deep inside a library call is still visible in
/// the run's closing JSONL record.
static RECOVERIES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Appends one recovery action to the process-wide recovery log.
pub fn record_recovery(text: impl Into<String>) {
    RECOVERIES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(text.into());
}

/// Takes (and clears) the recovery log. Called by
/// [`crate::RunManifest::emit`]; each recovery appears in exactly one
/// manifest.
pub fn drain_recoveries() -> Vec<String> {
    std::mem::take(&mut *RECOVERIES.lock().unwrap_or_else(PoisonError::into_inner))
}

/// The pipeline phase reported by the live `/healthz` endpoint.
static PHASE: Mutex<Option<String>> = Mutex::new(None);

/// Declares the pipeline phase reported by `GET /healthz` (e.g.
/// `"train"`, `"discover"`, `"grid:cell lcwa_uniform/transe"`).
pub fn set_phase(phase: impl Into<String>) {
    *PHASE.lock().unwrap_or_else(PoisonError::into_inner) = Some(phase.into());
}

/// The phase last declared with [`set_phase`], if any.
pub fn current_phase() -> Option<String> {
    PHASE.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Wraps `payload` in an [`Event`] (run id + timestamp) and delivers it to
/// the current observer.
pub fn emit(payload: Payload) {
    let event = Event {
        run: run_id().to_string(),
        t_us: clock_us(),
        payload,
    };
    observer().event(&event);
}

/// Emits a [`Payload::Metric`] event.
pub fn metric(name: impl Into<String>, value: f64, fields: Vec<crate::Field>) {
    emit(Payload::Metric {
        name: name.into(),
        value,
        fields,
    });
}

/// Emits a `Progress` message.
pub fn progress(text: impl Into<String>) {
    emit(Payload::Message {
        level: Level::Progress,
        text: text.into(),
    });
}

/// Emits an `Info` message.
pub fn info(text: impl Into<String>) {
    emit(Payload::Message {
        level: Level::Info,
        text: text.into(),
    });
}

/// Emits a `Warn` message (delivered even by the default observer).
pub fn warn(text: impl Into<String>) {
    emit(Payload::Message {
        level: Level::Warn,
        text: text.into(),
    });
}
