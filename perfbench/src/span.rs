//! Benchmark-side spans: recorded around the calls the benchmark makes
//! into the program, kept in memory and written out at exit.

use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (ladder rung) name.
    pub name: &'static str,
    /// Request id, shared by every span of one replayed request.
    pub req: u64,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Index of the rung below: the same request replayed one layer
    /// down, whose duration this span's self time excludes.
    pub below: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span store with a common epoch.
pub struct Recorder {
    epoch: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) -> usize {
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            req,
            start_us: at(start),
            end_us: at(end),
            parent: None,
            below: None,
        });
        self.spans.len() - 1
    }

    /// Self time of span `i`: its duration minus its rung below and
    /// minus every span recorded inside it.
    pub fn self_us(&self, i: usize) -> f64 {
        let span = &self.spans[i];
        let below = span.below.map_or(0.0, |b| self.spans[b].us());
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::us)
            .sum();
        span.us() - below - children
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"below\":{}}}",
                    s.name,
                    s.req,
                    s.start_us,
                    s.end_us,
                    opt(s.parent),
                    opt(s.below)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_the_rung_below_and_children() {
        let mut rec = Recorder::new();
        let t = Instant::now();
        let ms = Duration::from_millis;
        let low = rec.record("low", 1, t, t + ms(3));
        let up = rec.record("up", 1, t + ms(10), t + ms(20));
        rec.spans[up].below = Some(low);
        let child = rec.record("child", 1, t + ms(11), t + ms(12));
        rec.spans[child].parent = Some(up);
        assert!((rec.self_us(up) - 6000.0).abs() < 1.0);
        assert!((rec.self_us(low) - 3000.0).abs() < 1.0);
        assert!(rec.to_json().contains("\"below\":0"));
    }
}
