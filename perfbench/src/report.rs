//! Named metrics with units, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// A JSON value, just enough for the result and provenance lines.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number (must be finite).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An object with its keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) => {
                assert!(v.is_finite(), "non-finite number in JSON output");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Names of metrics that are not finite numbers.
    pub fn non_finite(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| !e.1.is_finite())
            .map(|e| e.0.as_str())
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*value)),
                            ("unit".into(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("metrics".into(), m.to_json()),
            ("note".into(), Json::Str("a \"b\"\n".into())),
        ])
        .render();
        assert_eq!(
            line,
            r#"{"correct": true, "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}}, "note": "a \"b\"\u000a"}"#
        );
        assert_eq!(m.get("latency_ms"), Some(1.25));
        assert!(m.non_finite().is_empty());
    }
}
