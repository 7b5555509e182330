//! Span trees as the program already emits them (`dbt-serve/trace/v1`
//! bodies from the `trace` op, or an in-process `SpanRecorder`), reduced
//! to per-layer times.

use dbt_json::JsonValue;
use dbt_obs::SpanRecord;

/// One span: id, parent id, stage label and duration in micros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: String,
    pub parent: Option<String>,
    pub stage: String,
    pub micros: u64,
}

/// The spans of one trace plus the recorder's eviction count.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    pub dropped: u64,
    pub spans: Vec<Span>,
}

impl Tree {
    /// Parses a `dbt-serve/trace/v1` body.
    pub fn parse(body: &str) -> Result<Tree, String> {
        let value = JsonValue::parse(body).map_err(|e| format!("trace body: {e}"))?;
        let dropped =
            value.get("dropped").and_then(JsonValue::as_u64).ok_or("trace body: no `dropped`")?;
        let mut spans = Vec::new();
        for span in
            value.get("spans").and_then(JsonValue::as_array).ok_or("trace body: no `spans`")?
        {
            let text = |key: &str| span.get(key).and_then(JsonValue::as_str).map(str::to_string);
            spans.push(Span {
                id: text("span_id").ok_or("span without `span_id`")?,
                parent: text("parent"),
                stage: text("stage").ok_or("span without `stage`")?,
                micros: span
                    .get("duration_micros")
                    .and_then(JsonValue::as_u64)
                    .ok_or("span without duration")?,
            });
        }
        Ok(Tree { dropped, spans })
    }

    /// A tree of in-process records.
    pub fn from_records(records: &[SpanRecord], dropped: u64) -> Tree {
        let spans = records
            .iter()
            .map(|r| Span {
                id: r.span_id.clone(),
                parent: r.parent.clone(),
                stage: r.stage.clone(),
                micros: r.duration_micros,
            })
            .collect();
        Tree { dropped, spans }
    }

    /// Duration of the span with id `id`, in micros.
    pub fn micros_of(&self, id: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.id == id).map(|s| s.micros)
    }

    /// Count and summed micros of every span whose stage is `stage`.
    pub fn stage_total(&self, stage: &str) -> (usize, u64) {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .fold((0, 0), |(count, micros), s| (count + 1, micros + s.micros))
    }

    /// `simulate` spans minus the translation spans directly under them:
    /// the VLIW execute loop plus the cache model, in micros.
    pub fn simulate_self_micros(&self) -> u64 {
        let mut total = 0u64;
        for simulate in self.spans.iter().filter(|s| s.stage == "simulate") {
            let children: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent.as_deref() == Some(simulate.id.as_str()))
                .filter(|s| s.stage.starts_with("translate."))
                .map(|s| s.micros)
                .sum();
            total += simulate.micros.saturating_sub(children);
        }
        total
    }
}

/// Translation and simulation work recorded in one tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub analysis_count: usize,
    pub analysis_micros: u64,
    pub codegen_count: usize,
    pub codegen_micros: u64,
    pub simulations: usize,
    pub simulate_micros: u64,
    pub simulate_self_micros: u64,
}

impl Work {
    /// The work spans of `tree`.
    pub fn of(tree: &Tree) -> Work {
        let (analysis_count, analysis_micros) = tree.stage_total("translate.analysis");
        let (codegen_count, codegen_micros) = tree.stage_total("translate.codegen");
        let (simulations, simulate_micros) = tree.stage_total("simulate");
        Work {
            analysis_count,
            analysis_micros,
            codegen_count,
            codegen_micros,
            simulations,
            simulate_micros,
            simulate_self_micros: tree.simulate_self_micros(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"schema": "dbt-serve/trace/v1", "trace_id": "c0-1", "dropped": 0, "spans": [
        {"span_id": "d:decode", "parent": "d:request", "stage": "decode", "start_micros": 0, "duration_micros": 3},
        {"span_id": "d:translate.analysis", "parent": "d:simulate", "stage": "translate.analysis", "start_micros": 5, "duration_micros": 20},
        {"span_id": "d:translate.codegen", "parent": "d:simulate", "stage": "translate.codegen", "start_micros": 25, "duration_micros": 10},
        {"span_id": "d:simulate", "parent": "d:request", "stage": "simulate", "start_micros": 4, "duration_micros": 100},
        {"span_id": "d:request", "parent": null, "stage": "request", "start_micros": 0, "duration_micros": 120}]}"#;

    #[test]
    fn trees_reduce_to_layer_work() {
        let tree = Tree::parse(BODY).unwrap();
        assert_eq!(tree.dropped, 0);
        assert_eq!(tree.micros_of("d:request"), Some(120));
        assert_eq!(tree.spans[4].parent, None);
        let work = Work::of(&tree);
        assert_eq!((work.analysis_count, work.analysis_micros), (1, 20));
        assert_eq!((work.codegen_count, work.codegen_micros), (1, 10));
        assert_eq!((work.simulations, work.simulate_self_micros), (1, 70));
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(Tree::parse("{}").is_err());
        assert!(Tree::parse("not json").is_err());
    }
}
