//! Interchange: JSON (serde) helpers, a typed parse path for untrusted
//! input, and Graphviz DOT export.
//!
//! The string-error [`from_json`] is the convenience path for CLI use; the
//! typed [`from_json_typed`] / [`graph_from_value`] path is what services
//! ingesting untrusted documents should call — it distinguishes syntax
//! errors, shape errors, out-of-range numeric values (with task/point
//! context) and semantic graph violations, instead of flattening everything
//! into one message.

use crate::design_point::DesignPoint;
use crate::graph::{TaskGraph, TaskGraphError, TaskNode};
use serde::json::Value;
use std::fmt;
use std::fmt::Write as _;

/// Typed failure modes of parsing a task graph from an interchange document.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// The document is not valid JSON.
    Syntax {
        /// Parser message (includes the byte offset).
        message: String,
    },
    /// The document is valid JSON but not shaped like a task graph
    /// (missing or mistyped `tasks` / `edges` fields).
    Shape {
        /// What was wrong.
        message: String,
    },
    /// A design-point number is out of range: non-finite, non-positive
    /// duration, or negative current. Caught *before* graph construction so
    /// the report can name the exact task and point.
    InvalidValue {
        /// Name of the offending task.
        task: String,
        /// 0-based index of the offending design point.
        point: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The values were well-formed but violate a graph invariant
    /// (cycle, duplicate edge, non-uniform point counts, …).
    Graph(TaskGraphError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { message } => write!(f, "invalid JSON: {message}"),
            Self::Shape { message } => write!(f, "not a task graph: {message}"),
            Self::InvalidValue {
                task,
                point,
                message,
            } => write!(f, "design point {point} of task {task}: {message}"),
            Self::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<TaskGraphError> for IoError {
    fn from(e: TaskGraphError) -> Self {
        Self::Graph(e)
    }
}

/// Serialises a graph to pretty JSON.
pub fn to_json(g: &TaskGraph) -> String {
    serde_json::to_string_pretty(g).expect("task graphs always serialise")
}

/// Parses a graph from JSON, revalidating all invariants.
///
/// # Errors
///
/// Returns a human-readable message; [`from_json_typed`] preserves the
/// error structure for callers that route on it.
pub fn from_json(json: &str) -> Result<TaskGraph, String> {
    from_json_typed(json).map_err(|e| e.to_string())
}

/// Parses a graph from JSON with typed errors — the ingestion path for
/// untrusted input (the scheduling service's wire format builds on it).
///
/// On top of [`from_json`]'s validation this rejects, with precise context:
///
/// * non-finite durations/currents/voltages (JSON cannot spell `NaN`, but
///   `1e999` parses to `inf`), non-positive durations and negative currents
///   *before* graph construction ([`IoError::InvalidValue`]);
/// * duplicate edges ([`TaskGraphError::DuplicateEdge`]) — interchange
///   documents must list each edge exactly once.
///
/// # Errors
///
/// Every [`IoError`] variant is reachable; see its docs.
pub fn from_json_typed(json: &str) -> Result<TaskGraph, IoError> {
    let v = serde::json::parse(json).map_err(|e| IoError::Syntax {
        message: e.to_string(),
    })?;
    graph_from_value(&v)
}

/// [`from_json_typed`] over an already-parsed JSON value — lets embedding
/// formats (a request envelope carrying a graph field) validate the graph
/// without re-serialising it.
///
/// # Errors
///
/// Every [`IoError`] variant except `Syntax`.
pub fn graph_from_value(v: &Value) -> Result<TaskGraph, IoError> {
    GraphFields::from_value(v).build()
}

/// A graph value's fields as some JSON reader decoded them, not yet
/// judged: what [`graph_from_value`] reads out of a tree, and what a
/// streaming decoder reads straight off the bytes. [`GraphFields::build`]
/// is the one verdict both get.
#[derive(Debug, Default)]
pub struct GraphFields {
    /// Whether the graph value was a JSON object (the fields below are
    /// unset when it was not).
    pub object: bool,
    /// The first `tasks` member, decoded; `None` when absent.
    pub tasks: Option<Result<Vec<TaskNode>, serde::json::Error>>,
    /// The first `edges` member, decoded; `None` when absent.
    pub edges: Option<Result<Vec<(usize, usize)>, serde::json::Error>>,
}

impl GraphFields {
    /// Decodes the fields of a parsed graph value.
    pub fn from_value(v: &Value) -> Self {
        let Some(obj) = v.as_obj() else {
            return Self::default();
        };
        let member = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        Self {
            object: true,
            tasks: member("tasks").map(serde::Deserialize::from_value),
            edges: member("edges").map(serde::Deserialize::from_value),
        }
    }

    /// Judges the fields: the shape (object, then `tasks`, then `edges`),
    /// each design point's numbers, then the graph invariants through
    /// [`TaskGraph::from_parts`] with duplicate edges rejected.
    ///
    /// # Errors
    ///
    /// Every [`IoError`] variant except `Syntax`.
    pub fn build(self) -> Result<TaskGraph, IoError> {
        let shape = |e: serde::json::Error| IoError::Shape {
            message: e.to_string(),
        };
        if !self.object {
            return Err(IoError::Shape {
                message: "expected a JSON object".into(),
            });
        }
        let tasks = serde::json::field_result(self.tasks, "tasks").map_err(shape)?;
        let edges = serde::json::field_result(self.edges, "edges").map_err(shape)?;
        for t in &tasks {
            for (j, p) in t.points.iter().enumerate() {
                if let Some(message) = point_fault(p) {
                    return Err(IoError::InvalidValue {
                        task: t.name.clone(),
                        point: j,
                        message: message.into(),
                    });
                }
            }
        }
        Ok(TaskGraph::from_parts(tasks, edges, true)?)
    }
}

/// What is wrong with a design point's numbers for an interchange
/// document, if anything: a duration that is not positive and finite, a
/// current that is not non-negative and finite, or a voltage that is not
/// positive and finite. Checked before graph construction so the report
/// can name the exact task and point.
pub fn point_fault(p: &DesignPoint) -> Option<&'static str> {
    if !(p.duration.is_finite() && p.duration.value() > 0.0) {
        Some("duration must be positive and finite")
    } else if !(p.current.is_finite() && p.current.is_non_negative()) {
        Some("current must be non-negative and finite")
    } else if !(p.voltage.is_finite() && p.voltage.value() > 0.0) {
        Some("voltage must be positive and finite")
    } else {
        None
    }
}

/// Renders the DAG in Graphviz DOT format, labelling each task with its
/// design-point table.
pub fn to_dot(g: &TaskGraph) -> String {
    let mut out = String::from("digraph taskgraph {\n  rankdir=TB;\n  node [shape=record];\n");
    for t in g.task_ids() {
        let node = g.task(t);
        let mut label = format!("{{{}|", node.name);
        for (j, p) in node.points.iter().enumerate() {
            if j > 0 {
                label.push_str("\\n");
            }
            let _ = write!(
                label,
                "DP{}: {:.0} mA, {:.1} min",
                j + 1,
                p.current.value(),
                p.duration.value()
            );
        }
        label.push('}');
        let _ = writeln!(out, "  t{} [label=\"{}\"];", t.index(), label);
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  t{} -> t{};", u.index(), v.index());
    }
    out.push_str("}\n");
    out
}

/// Round-trips a graph through JSON; used by tests and the CLI self-check.
///
/// # Errors
///
/// Propagates parse errors (which indicate a serialisation bug).
pub fn round_trip(g: &TaskGraph) -> Result<TaskGraph, String> {
    from_json(&to_json(g))
}

/// Re-exported for error-type uniformity in downstream code.
pub type GraphResult<T> = Result<T, TaskGraphError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{g2, g3};

    #[test]
    fn json_round_trip_paper_graphs() {
        for g in [g2(), g3()] {
            let back = round_trip(&g).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn from_json_reports_syntax_errors() {
        assert!(from_json("{ not json").is_err());
    }

    #[test]
    fn from_json_reports_semantic_errors() {
        let json = r#"{"tasks": [], "edges": []}"#;
        let err = from_json(json).unwrap_err();
        assert!(err.contains("no tasks"), "got: {err}");
    }

    fn one_point_task(name: &str, duration: f64, current: f64) -> String {
        format!(
            r#"{{"name":"{name}","points":[{{"duration":{duration:?},"current":{current:?},"voltage":1.0}}]}}"#
        )
    }

    #[test]
    fn typed_errors_classify_failures() {
        // Syntax.
        assert!(matches!(
            from_json_typed("{ nope").unwrap_err(),
            IoError::Syntax { .. }
        ));
        // Shape: not an object / missing or mistyped fields.
        assert!(matches!(
            from_json_typed("[1,2]").unwrap_err(),
            IoError::Shape { .. }
        ));
        assert!(matches!(
            from_json_typed(r#"{"edges": []}"#).unwrap_err(),
            IoError::Shape { .. }
        ));
        assert!(matches!(
            from_json_typed(r#"{"tasks": 3, "edges": []}"#).unwrap_err(),
            IoError::Shape { .. }
        ));
        // Semantic graph violation.
        assert!(matches!(
            from_json_typed(r#"{"tasks": [], "edges": []}"#).unwrap_err(),
            IoError::Graph(TaskGraphError::Empty)
        ));
    }

    #[test]
    fn typed_parse_rejects_bad_numbers_with_context() {
        for (duration, current, what) in [
            ("-2.0", "10.0", "duration"),
            ("0.0", "10.0", "duration"),
            ("1e999", "10.0", "duration"), // JSON spelling of +inf
            ("1.0", "-5.0", "current"),
            ("1.0", "1e999", "current"),
        ] {
            // Built textually so 1e999 reaches the parser as written.
            let json = format!(
                r#"{{"tasks":[{{"name":"T","points":[{{"duration":{duration},"current":{current},"voltage":1.0}}]}}],"edges":[]}}"#
            );
            let err = from_json_typed(&json).unwrap_err();
            match err {
                IoError::InvalidValue {
                    task,
                    point,
                    message,
                } => {
                    assert_eq!(task, "T");
                    assert_eq!(point, 0);
                    assert!(message.contains(what), "{message} should mention {what}");
                }
                other => panic!("{duration}/{current}: expected InvalidValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn typed_parse_rejects_duplicate_edges() {
        let json = format!(
            r#"{{"tasks":[{},{}],"edges":[[0,1],[0,1]]}}"#,
            one_point_task("A", 1.0, 10.0),
            one_point_task("B", 2.0, 5.0)
        );
        assert_eq!(
            from_json_typed(&json).unwrap_err(),
            IoError::Graph(TaskGraphError::DuplicateEdge { from: 0, to: 1 })
        );
        // And the string path reports it readably.
        assert!(from_json(&json).unwrap_err().contains("more than once"));
    }

    #[test]
    fn dot_mentions_every_task_and_edge() {
        let g = g2();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        for t in g.task_ids() {
            assert!(dot.contains(&format!("t{} [", t.index())));
        }
        assert_eq!(dot.matches(" -> ").count(), g.edge_count());
        assert!(dot.contains("938 mA"));
    }
}
