//! Dependency-free JSON serialization of tasks and task sets.
//!
//! The workspace builds with no access to crates.io, so instead of serde
//! this module hand-rolls the (tiny) JSON schema task sets need — used by
//! `repro dump-set` and by anyone wanting to persist generated workloads:
//!
//! ```json
//! {
//!   "version": 1,
//!   "tasks": [
//!     {
//!       "name": "video",
//!       "period": 40,
//!       "deadline": 40,
//!       "dag": { "wcets": [2, 6, 4, 1], "edges": [[0, 1], [0, 2]] }
//!     }
//!   ]
//! }
//! ```
//!
//! `name` is omitted for unnamed tasks. Parsing accepts standard JSON
//! (insignificant whitespace, string escapes, any key order) and validates
//! through the usual [`DagBuilder`] / [`DagTask::new`] constructors, so a
//! parsed task upholds every model invariant.
//!
//! Task-**set** payloads are versioned: writers stamp the current
//! [`TASK_SET_SCHEMA_VERSION`], readers accept version-less legacy payloads
//! (implicitly version 1) and reject anything newer with the structured
//! [`JsonError::UnknownVersion`] — never a panic — so an old server given a
//! new client's payload degrades into a clean protocol error.
//!
//! Besides the pretty printers there are single-line compact writers
//! ([`task_set_to_json_compact`]) for line-delimited wire framing, and the
//! generic JSON layer ([`Value`], [`parse`], [`task_set_from_value`]) is
//! public so protocol envelopes that *embed* a task set (the `repro serve`
//! request format) can parse once and pick fields off the tree.
//!
//! # Example
//!
//! ```
//! use rta_model::{json, DagBuilder, DagTask};
//!
//! # fn main() -> Result<(), rta_model::json::JsonError> {
//! let mut b = DagBuilder::new();
//! let v = b.add_nodes([3, 4]);
//! b.add_chain(&v).unwrap();
//! let task = DagTask::new(b.build().unwrap(), 20, 15).unwrap().named("t");
//! let round_tripped = json::task_from_json(&json::task_to_json(&task))?;
//! assert_eq!(task, round_tripped);
//! # Ok(())
//! # }
//! ```

use crate::dag::{Dag, DagBuilder};
use crate::error::ModelError;
use crate::ids::NodeId;
use crate::task::DagTask;
use crate::taskset::TaskSet;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The newest task-set payload schema version this build reads and the one
/// it writes. Version-less payloads predate versioning and are read as
/// version 1.
pub const TASK_SET_SCHEMA_VERSION: u64 = 1;

/// The deepest nesting of arrays and objects [`parse`] accepts: the reader
/// recurses once per level, so this bounds its stack (a `repro serve`
/// request nests 7 levels).
pub const MAX_NESTING_DEPTH: usize = 128;

/// Why a JSON document could not be turned into a model value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonError {
    /// The text is not well-formed JSON; byte offset and description.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Well-formed JSON that does not match the schema.
    Schema(String),
    /// The payload declares a schema version this build does not read.
    UnknownVersion {
        /// The version the payload declares.
        found: u64,
        /// The newest version this build understands
        /// ([`TASK_SET_SCHEMA_VERSION`]).
        supported: u64,
    },
    /// Schema-valid input rejected by a model constructor (e.g. a cycle or
    /// a deadline exceeding the period).
    Model(ModelError),
    /// Arrays and objects nest deeper than [`MAX_NESTING_DEPTH`].
    TooDeep {
        /// Byte offset of the first bracket past the limit.
        offset: usize,
        /// The limit ([`MAX_NESTING_DEPTH`]).
        limit: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Schema(message) => write!(f, "JSON schema error: {message}"),
            JsonError::UnknownVersion { found, supported } => write!(
                f,
                "unsupported task-set schema version {found} (this build reads up to {supported})"
            ),
            JsonError::Model(e) => write!(f, "parsed JSON violates the task model: {e}"),
            JsonError::TooDeep { offset, limit } => write!(
                f,
                "JSON nests deeper than {limit} arrays/objects at byte {offset}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<ModelError> for JsonError {
    fn from(e: ModelError) -> Self {
        JsonError::Model(e)
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn dag_into(out: &mut String, dag: &Dag, indent: &str) {
    let _ = write!(out, "{{\n{indent}  \"wcets\": [");
    for (i, w) in dag.wcets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{w}");
    }
    let _ = write!(out, "],\n{indent}  \"edges\": [");
    for (i, (from, to)) in dag.edges().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", from.index(), to.index());
    }
    let _ = write!(out, "]\n{indent}}}");
}

fn task_into(out: &mut String, task: &DagTask, indent: &str) {
    let _ = write!(out, "{{\n{indent}  ");
    if let Some(name) = task.name() {
        out.push_str("\"name\": ");
        escape_into(out, name);
        let _ = write!(out, ",\n{indent}  ");
    }
    let _ = write!(
        out,
        "\"period\": {},\n{indent}  \"deadline\": {},\n{indent}  \"dag\": ",
        task.period(),
        task.deadline()
    );
    dag_into(out, task.dag(), &format!("{indent}  "));
    let _ = write!(out, "\n{indent}}}");
}

/// Renders one task as pretty-printed JSON.
pub fn task_to_json(task: &DagTask) -> String {
    let mut out = String::new();
    task_into(&mut out, task, "");
    out
}

/// Renders a task set as pretty-printed JSON (tasks in priority order),
/// stamped with the current [`TASK_SET_SCHEMA_VERSION`].
pub fn task_set_to_json(task_set: &TaskSet) -> String {
    let mut out = format!("{{\n  \"version\": {TASK_SET_SCHEMA_VERSION},\n  \"tasks\": [");
    for (i, task) in task_set.tasks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        task_into(&mut out, task, "    ");
    }
    if !task_set.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn dag_into_compact(out: &mut String, dag: &Dag) {
    out.push_str("{\"wcets\":[");
    for (i, w) in dag.wcets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    out.push_str("],\"edges\":[");
    for (i, (from, to)) in dag.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", from.index(), to.index());
    }
    out.push_str("]}");
}

fn task_into_compact(out: &mut String, task: &DagTask) {
    out.push('{');
    if let Some(name) = task.name() {
        out.push_str("\"name\":");
        escape_into(out, name);
        out.push(',');
    }
    let _ = write!(
        out,
        "\"period\":{},\"deadline\":{},\"dag\":",
        task.period(),
        task.deadline()
    );
    dag_into_compact(out, task.dag());
    out.push('}');
}

/// Renders one task as single-line compact JSON (same schema as
/// [`task_to_json`], no insignificant whitespace).
pub fn task_to_json_compact(task: &DagTask) -> String {
    let mut out = String::new();
    task_into_compact(&mut out, task);
    out
}

/// Renders a task set as single-line compact JSON — the form the
/// line-delimited `repro serve` wire protocol embeds in its request frames.
/// Parses back through [`task_set_from_json`] like the pretty form.
pub fn task_set_to_json_compact(task_set: &TaskSet) -> String {
    let mut out = format!("{{\"version\":{TASK_SET_SCHEMA_VERSION},\"tasks\":[");
    for (i, task) in task_set.tasks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        task_into_compact(&mut out, task);
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Parsing: a minimal recursive-descent JSON reader
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Public so that protocol layers embedding a task set in a larger
/// envelope (the `repro serve` request format) can [`parse`] the document
/// once, pick their own fields off the tree, and hand the `"task_set"`
/// subtree to [`task_set_from_value`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Numbers that fit an unsigned integer exactly stay exact.
    UInt(u64),
    /// Any other number (negative, fractional, or in exponent form).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved (nor significant).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value of `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The exact unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING_DEPTH {
                    return Err(JsonError::TooDeep {
                        offset: self.pos,
                        limit: MAX_NESTING_DEPTH,
                    });
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return self.err("expected string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let scalar = match code {
                                // High surrogate: standard JSON encodes
                                // non-BMP characters as a \uXXXX\uXXXX
                                // pair (e.g. Python's ensure_ascii).
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return self
                                            .err("high surrogate not followed by \\u escape");
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return self
                                            .err("high surrogate not followed by low surrogate");
                                    }
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return self.err("unpaired low surrogate");
                                }
                                code => code,
                            };
                            let Some(c) = char::from_u32(scalar) else {
                                return self.err("\\u escape is not a scalar value");
                            };
                            out.push(c);
                        }
                        other => return self.err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x20 => return self.err("control character in string"),
                _ => {
                    // Re-decode UTF-8 from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let Some(slice) = self.bytes.get(start..start + len) else {
                        return self.err("truncated UTF-8 sequence");
                    };
                    let Ok(s) = std::str::from_utf8(slice) else {
                        return self.err("invalid UTF-8 in string");
                    };
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Reads exactly four hex digits (the payload of a `\u` escape).
    /// `from_str_radix` alone would also accept a leading `+`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        let Some(code) = code else {
            return self.err("invalid \\u escape");
        };
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Value::Float(v)),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses one complete JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns [`JsonError::Syntax`] when the text is not well-formed JSON or
/// has trailing characters after the document, and [`JsonError::TooDeep`]
/// when it nests past [`MAX_NESTING_DEPTH`].
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing characters after JSON document");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Schema mapping
// ---------------------------------------------------------------------------

fn as_u64(value: &Value, what: &str) -> Result<u64, JsonError> {
    match value {
        Value::UInt(v) => Ok(*v),
        _ => Err(JsonError::Schema(format!(
            "{what} must be a non-negative integer, got {value:?}"
        ))),
    }
}

fn dag_from_value(value: &Value) -> Result<Dag, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("\"dag\" must be an object".into()));
    };
    let Some(Value::Array(wcets)) = obj.get("wcets") else {
        return Err(JsonError::Schema("\"dag.wcets\" must be an array".into()));
    };
    let Some(Value::Array(edges)) = obj.get("edges") else {
        return Err(JsonError::Schema("\"dag.edges\" must be an array".into()));
    };
    let mut builder = DagBuilder::new();
    let nodes: Vec<NodeId> = wcets
        .iter()
        .map(|w| as_u64(w, "a WCET").map(|w| builder.add_node(w)))
        .collect::<Result<_, _>>()?;
    for edge in edges {
        let Value::Array(pair) = edge else {
            return Err(JsonError::Schema(
                "an edge must be a [from, to] pair".into(),
            ));
        };
        let [from, to] = pair.as_slice() else {
            return Err(JsonError::Schema(
                "an edge must be a [from, to] pair".into(),
            ));
        };
        let from = as_u64(from, "an edge endpoint")? as usize;
        let to = as_u64(to, "an edge endpoint")? as usize;
        if from >= nodes.len() || to >= nodes.len() {
            return Err(JsonError::Schema(format!(
                "edge [{from}, {to}] references a node out of range (|V| = {})",
                nodes.len()
            )));
        }
        builder.add_edge(nodes[from], nodes[to])?;
    }
    Ok(builder.build()?)
}

fn task_from_value(value: &Value) -> Result<DagTask, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("a task must be an object".into()));
    };
    let period = as_u64(
        obj.get("period")
            .ok_or_else(|| JsonError::Schema("task is missing \"period\"".into()))?,
        "\"period\"",
    )?;
    let deadline = as_u64(
        obj.get("deadline")
            .ok_or_else(|| JsonError::Schema("task is missing \"deadline\"".into()))?,
        "\"deadline\"",
    )?;
    let dag = dag_from_value(
        obj.get("dag")
            .ok_or_else(|| JsonError::Schema("task is missing \"dag\"".into()))?,
    )?;
    let task = DagTask::new(dag, period, deadline)?;
    match obj.get("name") {
        None | Some(Value::Null) => Ok(task),
        Some(Value::Str(name)) => Ok(task.named(name.clone())),
        Some(other) => Err(JsonError::Schema(format!(
            "\"name\" must be a string, got {other:?}"
        ))),
    }
}

/// Parses one task from JSON (the format of [`task_to_json`]).
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON, schema mismatches, or inputs
/// rejected by the model constructors.
pub fn task_from_json(text: &str) -> Result<DagTask, JsonError> {
    task_from_value(&parse(text)?)
}

/// Maps an already-parsed [`Value`] to a task set, enforcing the schema
/// version: a missing `"version"` reads as the legacy version 1, a declared
/// version must equal [`TASK_SET_SCHEMA_VERSION`].
///
/// # Errors
///
/// Returns [`JsonError`] for schema mismatches, unknown schema versions, or
/// inputs rejected by the model constructors.
pub fn task_set_from_value(value: &Value) -> Result<TaskSet, JsonError> {
    let Value::Object(obj) = value else {
        return Err(JsonError::Schema("a task set must be a JSON object".into()));
    };
    match obj.get("version") {
        None => {} // version-less legacy payload: version 1
        Some(Value::UInt(v)) if *v == TASK_SET_SCHEMA_VERSION => {}
        Some(Value::UInt(v)) => {
            return Err(JsonError::UnknownVersion {
                found: *v,
                supported: TASK_SET_SCHEMA_VERSION,
            });
        }
        Some(other) => {
            return Err(JsonError::Schema(format!(
                "\"version\" must be a non-negative integer, got {other:?}"
            )));
        }
    }
    let Some(Value::Array(tasks)) = obj.get("tasks") else {
        return Err(JsonError::Schema("\"tasks\" must be an array".into()));
    };
    Ok(TaskSet::new(
        tasks
            .iter()
            .map(task_from_value)
            .collect::<Result<_, _>>()?,
    ))
}

/// Parses a task set from JSON (the format of [`task_set_to_json`]).
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON, schema mismatches, unknown
/// schema versions, or inputs rejected by the model constructors.
pub fn task_set_from_json(text: &str) -> Result<TaskSet, JsonError> {
    task_set_from_value(&parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    fn fork_join() -> DagTask {
        let mut b = DagBuilder::new();
        let v1 = b.add_node(2);
        let v2 = b.add_node(6);
        let v3 = b.add_node(4);
        let v4 = b.add_node(1);
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v1, v3).unwrap();
        b.add_edge(v2, v4).unwrap();
        b.add_edge(v3, v4).unwrap();
        DagTask::new(b.build().unwrap(), 40, 32).unwrap()
    }

    #[test]
    fn task_round_trip_unnamed_and_named() {
        let task = fork_join();
        assert_eq!(task_from_json(&task_to_json(&task)).unwrap(), task);
        let named = fork_join().named("vidéo \"main\"\n");
        assert_eq!(task_from_json(&task_to_json(&named)).unwrap(), named);
    }

    #[test]
    fn task_set_round_trip() {
        let ts = TaskSet::new(vec![fork_join().named("a"), fork_join()]);
        let json = task_set_to_json(&ts);
        assert_eq!(task_set_from_json(&json).unwrap(), ts);
        let empty = TaskSet::new(vec![]);
        assert_eq!(
            task_set_from_json(&task_set_to_json(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn whitespace_and_key_order_are_insignificant() {
        let text = r#"{ "dag": {"edges": [], "wcets": [5]}, "deadline": 3, "period": 9 }"#;
        let task = task_from_json(text).unwrap();
        assert_eq!(task.period(), 9);
        assert_eq!(task.deadline(), 3);
        assert_eq!(task.dag().volume(), 5);
    }

    #[test]
    fn syntax_errors_are_reported_with_offset() {
        let err = task_from_json("{\"period\": }").unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }), "{err:?}");
    }

    #[test]
    fn nesting_past_the_limit_is_a_structured_error() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_NESTING_DEPTH)).is_ok());
        let err = parse(&nest(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            JsonError::TooDeep {
                offset: MAX_NESTING_DEPTH,
                limit: MAX_NESTING_DEPTH
            }
        );
        // Objects count too, and an unterminated bomb far past the limit
        // fails the same way instead of exhausting the stack.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING_DEPTH + 1),
            "}".repeat(MAX_NESTING_DEPTH + 1)
        );
        assert!(matches!(parse(&objects), Err(JsonError::TooDeep { .. })));
        assert!(matches!(
            parse(&"[".repeat(500_000)),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn schema_errors_name_the_field() {
        let err =
            task_from_json(r#"{"deadline": 3, "dag": {"wcets": [], "edges": []}}"#).unwrap_err();
        assert_eq!(err, JsonError::Schema("task is missing \"period\"".into()));
        let err = task_from_json(
            r#"{"period": 5, "deadline": 3, "dag": {"wcets": [1], "edges": [[0, 7]]}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)), "{err:?}");
    }

    #[test]
    fn model_violations_surface_as_model_errors() {
        let err =
            task_from_json(r#"{"period": 5, "deadline": 9, "dag": {"wcets": [1], "edges": []}}"#)
                .unwrap_err();
        assert_eq!(
            err,
            JsonError::Model(ModelError::DeadlineExceedsPeriod {
                deadline: 9,
                period: 5
            })
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_halves_are_rejected() {
        // What an ensure_ascii JSON writer emits for a name with 😀.
        let ok = task_from_json(
            "{\"name\": \"\\ud83d\\ude00\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap();
        assert_eq!(ok.name(), Some("😀"));
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            let doc = format!(
                "{{\"name\": {bad}, \"period\": 5, \"deadline\": 3, \
                 \"dag\": {{\"wcets\": [1], \"edges\": []}}}}"
            );
            let err = task_from_json(&doc).unwrap_err();
            assert!(matches!(err, JsonError::Syntax { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn unicode_escape_requires_four_hex_digits() {
        // from_str_radix would accept "+041"; the parser must not.
        let err = task_from_json(
            "{\"name\": \"\\u+041\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap_err();
        assert!(matches!(err, JsonError::Syntax { .. }), "{err:?}");
        let ok = task_from_json(
            "{\"name\": \"\\u0041\", \"period\": 5, \"deadline\": 3, \
             \"dag\": {\"wcets\": [1], \"edges\": []}}",
        )
        .unwrap();
        assert_eq!(ok.name(), Some("A"));
    }

    #[test]
    fn floats_rejected_where_integers_required() {
        let err =
            task_from_json(r#"{"period": 5.5, "deadline": 3, "dag": {"wcets": [1], "edges": []}}"#)
                .unwrap_err();
        assert!(matches!(err, JsonError::Schema(_)), "{err:?}");
    }

    #[test]
    fn task_set_payloads_are_version_stamped() {
        let ts = TaskSet::new(vec![fork_join()]);
        let json = task_set_to_json(&ts);
        assert!(json.contains("\"version\": 1"), "{json}");
        assert_eq!(task_set_from_json(&json).unwrap(), ts);
    }

    #[test]
    fn version_less_legacy_payloads_still_parse() {
        let legacy =
            r#"{"tasks": [{"period": 5, "deadline": 3, "dag": {"wcets": [1], "edges": []}}]}"#;
        assert_eq!(task_set_from_json(legacy).unwrap().len(), 1);
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_structured_error() {
        let future = r#"{"version": 2, "tasks": []}"#;
        assert_eq!(
            task_set_from_json(future).unwrap_err(),
            JsonError::UnknownVersion {
                found: 2,
                supported: TASK_SET_SCHEMA_VERSION
            }
        );
        // Non-integer versions are a schema error, not a panic.
        for bad in [
            r#"{"version": "1", "tasks": []}"#,
            r#"{"version": -1, "tasks": []}"#,
        ] {
            let err = task_set_from_json(bad).unwrap_err();
            assert!(matches!(err, JsonError::Schema(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn compact_writers_are_single_line_and_round_trip() {
        let ts = TaskSet::new(vec![fork_join().named("a \"b\"\n"), fork_join()]);
        let compact = task_set_to_json_compact(&ts);
        assert!(!compact.contains('\n'), "{compact}");
        assert!(compact.starts_with("{\"version\":1,"), "{compact}");
        assert_eq!(task_set_from_json(&compact).unwrap(), ts);
        // Compact and pretty forms parse to the same model value.
        assert_eq!(
            task_set_from_json(&task_set_to_json(&ts)).unwrap(),
            task_set_from_json(&compact).unwrap()
        );
        let task = fork_join().named("t");
        let one = task_to_json_compact(&task);
        assert!(!one.contains('\n'), "{one}");
        assert_eq!(task_from_json(&one).unwrap(), task);
    }

    #[test]
    fn envelope_parsing_through_the_public_value_layer() {
        let doc = parse(r#"{"cores": 4, "bounds": true, "task_set": {"version": 1, "tasks": []}}"#)
            .unwrap();
        assert_eq!(doc.get("cores").and_then(Value::as_u64), Some(4));
        assert_eq!(doc.get("bounds").and_then(Value::as_bool), Some(true));
        let ts = task_set_from_value(doc.get("task_set").unwrap()).unwrap();
        assert!(ts.is_empty());
        assert!(doc.get("missing").is_none());
    }
}
