//! Scoped span timers, now hierarchical.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! `finish` (or drop). Every span carries a process-unique [`SpanId`] and
//! the id of its parent — the innermost span live on the creating thread
//! (see [`crate::trace`]) — so finished spans form a tree. Finishing
//! records the duration into the histogram `<name>.duration_us`, emits a
//! [`Payload::SpanEnd`] event, and (when trace collection is enabled)
//! pushes a [`crate::SpanRecord`] into the process collector.
//!
//! Hot inner loops use **trace-only** spans ([`span_traced!`] /
//! [`Span::start_traced`]): they still time the scope and feed the trace
//! tree, but skip the histogram and the event stream, so a per-batch or
//! per-shard span cannot flood a JSONL sink.
//!
//! Cross-thread parenting: capture [`Span::handle`] (or
//! [`crate::current_span_handle`]) before dispatching, then call
//! `handle.enter()` on the worker; everything the worker opens nests under
//! it.

use crate::event::{Field, Payload};
use crate::histogram;
use crate::trace::{self, SpanHandle, SpanId};
use std::time::{Duration, Instant};

/// An in-progress timed section. Ends on [`Span::finish`] or drop.
#[must_use = "a span measures the scope it is bound to; use `let _g = span!(..)`"]
pub struct Span {
    name: &'static str,
    fields: Vec<Field>,
    start: Instant,
    start_us: u64,
    id: SpanId,
    parent: Option<SpanId>,
    finished: bool,
    /// When false, finishing skips the histogram and the SpanEnd event
    /// (trace-only spans for hot paths).
    emit: bool,
}

impl Span {
    /// Starts a span with no context fields.
    pub fn start(name: &'static str) -> Self {
        Span::new(name, Vec::new(), true)
    }

    /// Starts a span carrying context fields.
    pub fn with_fields(name: &'static str, fields: Vec<Field>) -> Self {
        Span::new(name, fields, true)
    }

    /// Starts a **trace-only** span: timed and recorded in the trace tree,
    /// but neither histogrammed nor emitted as an event. For per-batch /
    /// per-shard / per-kernel scopes that would otherwise flood sinks.
    pub fn start_traced(name: &'static str) -> Self {
        Span::new(name, Vec::new(), false)
    }

    /// [`Span::start_traced`] with context fields.
    pub fn with_fields_traced(name: &'static str, fields: Vec<Field>) -> Self {
        Span::new(name, fields, false)
    }

    fn new(name: &'static str, fields: Vec<Field>, emit: bool) -> Self {
        let id = trace::next_span_id();
        let parent = trace::current_span();
        trace::push_current(id);
        Span {
            name,
            fields,
            start: Instant::now(),
            start_us: crate::observer::clock_us(),
            id,
            parent,
            finished: false,
            emit,
        }
    }

    /// This span's process-unique id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Id of the span this one nests under, if any.
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }

    /// A `Copy + Send` handle for parenting work dispatched to other
    /// threads (see [`SpanHandle::enter`]).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle { id: self.id }
    }

    /// Time elapsed so far without ending the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span, returning its duration (also recorded + emitted).
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    fn end(&mut self) -> Duration {
        self.finished = true;
        trace::pop_current(self.id);
        let duration = self.start.elapsed();
        let us = duration.as_micros() as u64;
        let collector = trace::collector();
        if collector.is_enabled() {
            collector.record(crate::trace::SpanRecord {
                id: self.id.0,
                parent: self.parent.map(|p| p.0),
                name: self.name.to_string(),
                fields: self.fields.clone(),
                start_us: self.start_us,
                duration_us: us,
                thread: trace::thread_id(),
            });
        }
        if self.emit {
            histogram(&format!("{}.duration_us", self.name)).record(us as f64);
            crate::observer::emit(Payload::SpanEnd {
                name: self.name.to_string(),
                duration_us: us,
                span_id: self.id.0,
                parent_id: self.parent.map(|p| p.0),
                fields: std::mem::take(&mut self.fields),
            });
        }
        duration
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.end();
        }
    }
}

/// Emits one synthesized [`Payload::SpanEnd`] event (and the matching
/// `<name>.duration_us` histogram sample) for work that was timed
/// externally — typically a phase whose execution interleaves with another
/// phase (e.g. streaming generation/evaluation chunks) but which must still
/// surface as a *single* per-phase event so sinks see one record per phase
/// per unit of work.
///
/// The event gets a fresh span id and parents under the innermost live span
/// of the calling thread. It is **not** recorded into the trace collector:
/// the fine-grained trace-only spans that were actually timed already
/// represent this duration in the trace tree, and recording the aggregate
/// again would double-count it.
pub fn emit_span_aggregate(name: &str, duration: Duration, fields: Vec<Field>) {
    let us = duration.as_micros() as u64;
    histogram(&format!("{name}.duration_us")).record(us as f64);
    crate::observer::emit(Payload::SpanEnd {
        name: name.to_string(),
        duration_us: us,
        span_id: trace::next_span_id().0,
        parent_id: trace::current_span().map(|p| p.0),
        fields,
    });
}

/// Starts a [`Span`]: `span!("discover.generation")` or
/// `span!("discover.generation", relation = r.0)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::start($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::with_fields(
            $name,
            ::std::vec![$($crate::Field::new(::core::stringify!($key), $value)),+],
        )
    };
}

/// Starts a trace-only [`Span`] (no histogram, no event — see
/// [`Span::start_traced`]): `span_traced!("embed.train.batch")` or
/// `span_traced!("embed.train.shard", shard = i)`.
#[macro_export]
macro_rules! span_traced {
    ($name:expr) => {
        $crate::Span::start_traced($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::with_fields_traced(
            $name,
            ::std::vec![$($crate::Field::new(::core::stringify!($key), $value)),+],
        )
    };
}
