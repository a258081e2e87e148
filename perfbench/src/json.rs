//! A JSON value that prints itself (the workspace is offline, so no
//! serde). Object keys keep insertion order, so output is stable.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum J {
    Null,
    Bool(bool),
    Int(u64),
    /// Printed with every digit `f64` holds; non-finite prints `null`.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub(crate) fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub(crate) fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            J::Int(n) => write!(f, "{n}"),
            J::Num(x) if x.is_finite() => write!(f, "{x}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_valid_json() {
        let v = J::obj([
            ("a", J::Int(3)),
            (
                "b",
                J::Arr(vec![J::Num(1.5), J::Num(f64::NAN), J::Null, J::Bool(true)]),
            ),
            ("c \"q\"", J::str("line\nbreak\\")),
            ("tiny", J::Num(1.7e-9)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 3, "b": [1.5, null, null, true], "c \"q\"": "line\nbreak\\", "tiny": 0.0000000017}"#
        );
    }
}
