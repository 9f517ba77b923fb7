//! Table schemas with fixed-width physical layout.

use crate::value::Value;

/// Physical column type. Strings carry a fixed maximum byte width so rows
/// have a schema-determined encoded size (Shore-MT-style fixed-width pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 8-byte signed integer.
    Int,
    /// 8-byte IEEE-754 float.
    Float,
    /// Length-prefixed string padded to `max` bytes.
    Str(usize),
}

impl ColType {
    /// Encoded width in bytes.
    pub fn width(self) -> usize {
        match self {
            ColType::Int | ColType::Float => 8,
            ColType::Str(n) => 2 + n,
        }
    }

    /// Whether `v` conforms to this type (strings must fit the max width).
    pub fn admits(self, v: &Value) -> bool {
        match (self, v) {
            (ColType::Int, Value::Int(_)) => true,
            (ColType::Float, Value::Float(_)) => true,
            (ColType::Str(n), Value::Str(s)) => s.len() <= n,
            _ => false,
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name (unique within its schema).
    pub name: String,
    /// Physical type.
    pub ty: ColType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: &str, ty: ColType) -> Column {
        Column {
            name: name.to_string(),
            ty,
        }
    }
}

/// An ordered set of columns describing one table (or operator output).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    cols: Vec<Column>,
    /// Byte offset of each column within an encoded row.
    offsets: Vec<usize>,
}

impl Schema {
    /// Build a schema; panics on duplicate column names.
    pub fn new(cols: Vec<Column>) -> Schema {
        for (i, c) in cols.iter().enumerate() {
            for other in &cols[..i] {
                assert_ne!(c.name, other.name, "duplicate column '{}'", c.name);
            }
        }
        let offsets = cols
            .iter()
            .scan(0, |at, c| {
                let off = *at;
                *at += c.ty.width();
                Some(off)
            })
            .collect();
        Schema { cols, offsets }
    }

    /// Columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Index of `name`; panics if absent (schema errors are programming
    /// errors in this system — plans are machine-generated).
    pub fn col(&self, name: &str) -> usize {
        self.try_col(name)
            .unwrap_or_else(|| panic!("no column '{name}' in schema {:?}", self.names()))
    }

    /// Index of `name`, if present.
    pub fn try_col(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|c| c.name.as_str()).collect()
    }

    /// Byte offset of column `col` within an encoded row.
    pub fn offset(&self, col: usize) -> usize {
        self.offsets[col]
    }

    /// Encoded row width in bytes (fixed for the whole table).
    pub fn row_width(&self) -> usize {
        self.cols.iter().map(|c| c.ty.width()).sum()
    }

    /// Rows that fit one page of `page_size` bytes after the 4-byte header.
    pub fn rows_per_page(&self, page_size: usize) -> usize {
        let usable = page_size - 4;
        let w = self.row_width().max(1);
        (usable / w).max(1)
    }

    /// Check that a row conforms (arity + per-column types).
    pub fn validate(&self, row: &[Value]) -> bool {
        row.len() == self.cols.len()
            && row.iter().zip(&self.cols).all(|(v, c)| c.ty.admits(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("k", ColType::Int),
            Column::new("x", ColType::Float),
            Column::new("name", ColType::Str(10)),
        ])
    }

    #[test]
    fn widths_sum() {
        let s = sample();
        assert_eq!(s.row_width(), 8 + 8 + 12);
        assert_eq!(s.arity(), 3);
        assert_eq!((0..3).map(|c| s.offset(c)).collect::<Vec<_>>(), [0, 8, 16]);
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.col("x"), 1);
        assert_eq!(s.try_col("missing"), None);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        sample().col("zzz");
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            Column::new("a", ColType::Int),
            Column::new("a", ColType::Int),
        ]);
    }

    #[test]
    fn validation_checks_types_and_width() {
        let s = sample();
        assert!(s.validate(&[Value::Int(1), Value::Float(2.0), Value::str("ok")]));
        assert!(!s.validate(&[Value::Int(1), Value::Int(2), Value::str("ok")]));
        assert!(!s.validate(&[Value::Int(1), Value::Float(2.0)]));
        // 11 chars exceed Str(10)
        assert!(!s.validate(&[
            Value::Int(1),
            Value::Float(2.0),
            Value::str("0123456789A")
        ]));
    }

    #[test]
    fn rows_per_page_floors() {
        let s = sample(); // 28-byte rows
        assert_eq!(s.rows_per_page(32 * 1024), (32 * 1024 - 4) / 28);
    }
}
