//! Spans around the benchmark's calls into each layer.
//!
//! A span records name, start, end, parent and op id. Spans are kept in
//! memory and written out when the run ends; a disabled tracer costs one
//! branch per call. Spans inside the crates are out of scope here: these
//! are timed from outside, at the public functions the benchmark calls.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::plan::programs;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The function called, e.g. `compreuse::run_pipeline`.
    pub name: &'static str,
    /// Index into [`programs`] of the program involved, if one is.
    pub program: Option<usize>,
    /// Operation (or service batch) the call belongs to; `None` in
    /// set-up.
    pub op: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records while `enabled` and recording is on.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this run is traced at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between cycles; no-op when disabled).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        program: Option<usize>,
        op: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            program,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self times in milliseconds (duration minus the time its child
    /// spans cover) of the spans named `name`, restricted to `program`
    /// when given and to spans inside an operation when `in_op`.
    pub fn self_ms(&self, name: &str, program: Option<usize>, in_op: bool) -> Vec<f64> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&children_ns)
            .filter(|(s, _)| {
                s.name == name
                    && (program.is_none() || s.program == program)
                    && (!in_op || s.op.is_some())
            })
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as JSON to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let program = s.program.map_or("null".to_string(), |p| {
                format!("\"{}\"", programs()[p].name)
            });
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"program\":{program},\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
