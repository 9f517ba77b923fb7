//! Fixed-width row ⇄ bytes codec and page packing.
//!
//! Pages are `PAGE_SIZE`-byte buffers: a 4-byte little-endian row count
//! followed by fixed-width rows (width determined by the table's [`Schema`]).
//! This is the layout the storage manager persists and the layout whose byte
//! volume the simulated disk charges for.

use std::sync::Arc;

use crate::schema::{ColType, Schema};
use crate::value::{Row, Value};
use crate::PAGE_SIZE;

/// Encode `row` at the end of `buf` according to `schema`.
///
/// Panics if the row does not conform to the schema (row production is
/// internal; malformed rows are bugs, not inputs).
pub fn encode_row(schema: &Schema, row: &[Value], buf: &mut Vec<u8>) {
    debug_assert!(schema.validate(row), "row does not match schema");
    for (v, c) in row.iter().zip(schema.columns()) {
        match (c.ty, v) {
            (ColType::Int, Value::Int(x)) => buf.extend_from_slice(&x.to_le_bytes()),
            (ColType::Float, Value::Float(x)) => {
                buf.extend_from_slice(&x.to_le_bytes())
            }
            (ColType::Str(n), Value::Str(s)) => {
                let bytes = s.as_bytes();
                assert!(bytes.len() <= n, "string exceeds declared width");
                buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                buf.extend_from_slice(bytes);
                buf.resize(buf.len() + (n - bytes.len()), 0);
            }
            (ty, v) => panic!("type mismatch: column {ty:?} vs value {v:?}"),
        }
    }
}

/// A typed decode failure: the page bytes do not match the schema. Surfaced
/// instead of a panic so storage-level corruption maps to per-query error
/// outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was wrong with the bytes.
    pub reason: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt page: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// Decode one row starting at `buf[offset..]`, surfacing corruption as a
/// typed [`CodecError`].
pub fn try_decode_row(
    schema: &Schema,
    buf: &[u8],
    offset: usize,
) -> Result<Row, CodecError> {
    let mut pos = offset;
    let mut row = Row::with_capacity(schema.arity());
    for c in schema.columns() {
        match c.ty {
            ColType::Int => {
                let b: [u8; 8] = buf
                    .get(pos..pos + 8)
                    .and_then(|s| s.try_into().ok())
                    .ok_or(CodecError {
                        reason: "row overruns page",
                    })?;
                row.push(Value::Int(i64::from_le_bytes(b)));
                pos += 8;
            }
            ColType::Float => {
                let b: [u8; 8] = buf
                    .get(pos..pos + 8)
                    .and_then(|s| s.try_into().ok())
                    .ok_or(CodecError {
                        reason: "row overruns page",
                    })?;
                row.push(Value::Float(f64::from_le_bytes(b)));
                pos += 8;
            }
            ColType::Str(n) => {
                let hdr = buf.get(pos..pos + 2).ok_or(CodecError {
                    reason: "row overruns page",
                })?;
                let len = u16::from_le_bytes([hdr[0], hdr[1]]) as usize;
                if len > n {
                    return Err(CodecError {
                        reason: "string length exceeds declared width",
                    });
                }
                let raw = buf.get(pos + 2..pos + 2 + len).ok_or(CodecError {
                    reason: "row overruns page",
                })?;
                let s = std::str::from_utf8(raw).map_err(|_| CodecError {
                    reason: "invalid utf-8",
                })?;
                row.push(Value::str(s));
                pos += 2 + n;
            }
        }
    }
    Ok(row)
}

/// Decode one row starting at `buf[offset..]`; panics on corrupt bytes
/// (hot-path variant — storage verifies page checksums upstream).
pub fn decode_row(schema: &Schema, buf: &[u8], offset: usize) -> Row {
    match try_decode_row(schema, buf, offset) {
        Ok(row) => row,
        Err(e) => panic!("{e}"),
    }
}

/// An immutable storage page: packed rows plus the owning table's schema
/// knowledge is kept externally (pages are schema-less byte containers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Arc<[u8]>,
    rows: u32,
}

impl Page {
    /// Number of rows packed in this page.
    pub fn row_count(&self) -> usize {
        self.rows as usize
    }

    /// Raw byte size (always `PAGE_SIZE` for full pages; the final page of a
    /// table may be shorter).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw encoded bytes (header + packed rows) — checksummed by storage.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decode every row in the page, surfacing corruption as a typed error.
    pub fn try_decode_all(&self, schema: &Schema) -> Result<Vec<Row>, CodecError> {
        let width = schema.row_width();
        let mut out = Vec::with_capacity(self.rows as usize);
        for i in 0..self.rows as usize {
            out.push(try_decode_row(schema, &self.bytes, 4 + i * width)?);
        }
        Ok(out)
    }

    /// Decode every row in the page.
    pub fn decode_all(&self, schema: &Schema) -> Vec<Row> {
        let width = schema.row_width();
        let mut out = Vec::with_capacity(self.rows as usize);
        for i in 0..self.rows as usize {
            out.push(decode_row(schema, &self.bytes, 4 + i * width));
        }
        out
    }
}

/// Incrementally packs rows into pages.
pub struct PageBuilder<'a> {
    schema: &'a Schema,
    rows_per_page: usize,
    buf: Vec<u8>,
    count: u32,
    pages: Vec<Page>,
}

impl<'a> PageBuilder<'a> {
    /// Start a builder for `schema` with the standard page size.
    pub fn new(schema: &'a Schema) -> Self {
        Self::with_page_size(schema, PAGE_SIZE)
    }

    /// Start a builder with a custom page size (tests).
    pub fn with_page_size(schema: &'a Schema, page_size: usize) -> Self {
        let rows_per_page = schema.rows_per_page(page_size);
        PageBuilder {
            schema,
            rows_per_page,
            buf: Vec::with_capacity(page_size),
            count: 0,
            pages: Vec::new(),
        }
    }

    /// Append one row, sealing a page when full.
    pub fn push(&mut self, row: &[Value]) {
        if self.count == 0 {
            self.buf.extend_from_slice(&0u32.to_le_bytes());
        }
        encode_row(self.schema, row, &mut self.buf);
        self.count += 1;
        if self.count as usize >= self.rows_per_page {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.count == 0 {
            return;
        }
        self.buf[0..4].copy_from_slice(&self.count.to_le_bytes());
        let bytes: Arc<[u8]> = Arc::from(std::mem::take(&mut self.buf).into_boxed_slice());
        self.pages.push(Page {
            bytes,
            rows: self.count,
        });
        self.count = 0;
    }

    /// Seal any partial page and return all pages.
    pub fn finish(mut self) -> Vec<Page> {
        self.seal();
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColType::Int),
            Column::new("v", ColType::Float),
            Column::new("tag", ColType::Str(8)),
        ])
    }

    fn row(i: i64) -> Row {
        vec![
            Value::Int(i),
            Value::Float(i as f64 * 0.5),
            Value::str(&format!("t{i}")),
        ]
    }

    #[test]
    fn roundtrip_single_row() {
        let s = schema();
        let mut buf = Vec::new();
        let r = row(42);
        encode_row(&s, &r, &mut buf);
        assert_eq!(buf.len(), s.row_width());
        assert_eq!(decode_row(&s, &buf, 0), r);
    }

    #[test]
    fn pages_pack_and_decode_in_order() {
        let s = schema();
        let mut b = PageBuilder::with_page_size(&s, 128); // tiny pages
        let rows: Vec<Row> = (0..25).map(row).collect();
        for r in &rows {
            b.push(r);
        }
        let pages = b.finish();
        assert!(pages.len() > 1, "expected multiple pages");
        let decoded: Vec<Row> = pages.iter().flat_map(|p| p.decode_all(&s)).collect();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn empty_builder_yields_no_pages() {
        let s = schema();
        let b = PageBuilder::new(&s);
        assert!(b.finish().is_empty());
    }

    #[test]
    fn string_padding_preserves_content() {
        let s = Schema::new(vec![Column::new("s", ColType::Str(16))]);
        let mut buf = Vec::new();
        encode_row(&s, &[Value::str("ab")], &mut buf);
        assert_eq!(buf.len(), 18);
        assert_eq!(decode_row(&s, &buf, 0), vec![Value::str("ab")]);
        // empty string
        let mut buf2 = Vec::new();
        encode_row(&s, &[Value::str("")], &mut buf2);
        assert_eq!(decode_row(&s, &buf2, 0), vec![Value::str("")]);
    }
}
