//! Fixed-width row ⇄ bytes codec and page packing.
//!
//! Pages are `PAGE_SIZE`-byte buffers: a 4-byte little-endian row count
//! followed by fixed-width rows (width determined by the table's [`Schema`]).
//! This is the layout the storage manager persists and the layout whose byte
//! volume the simulated disk charges for.
//!
//! A page is read two ways. [`Page::rows`] reads it in place: a
//! [`PageRows`] decodes one column of one tuple per read, straight from the
//! bytes, and is what the CJOIN filter workers and distributor run on.
//! [`Page::decode_all`] decodes every column of every tuple into a
//! [`Row`] each; Volcano, the QPipe scan and admission read pages that
//! way, and it is the oracle the in-place reader is tested against.

use std::sync::Arc;

use crate::schema::{ColType, Schema};
use crate::value::{Row, Tuples, Value};
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
                row.push(Value::str(try_decode_str(n, buf, pos)?));
                pos += 2 + n;
            }
        }
    }
    Ok(row)
}

/// The error of a read past the end of a page.
const OVERRUN: CodecError = CodecError {
    reason: "row overruns page",
};

/// The `Str(n)` value starting at `buf[pos..]`: a 2-byte length, then that
/// many bytes of UTF-8, padded to `n`.
// Out of line on purpose: inlined into `try_decode_row`, it slowed an
// all-integer `decode_all` by about a third.
#[inline(never)]
fn try_decode_str(n: usize, buf: &[u8], pos: usize) -> Result<&str, CodecError> {
    let hdr = buf.get(pos..pos + 2).ok_or(OVERRUN)?;
    let len = u16::from_le_bytes([hdr[0], hdr[1]]) as usize;
    if len > n {
        return Err(CodecError {
            reason: "string length exceeds declared width",
        });
    }
    let raw = buf.get(pos + 2..pos + 2 + len).ok_or(OVERRUN)?;
    std::str::from_utf8(raw).map_err(|_| CodecError {
        reason: "invalid utf-8",
    })
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

    /// Read the page's tuples in place, refusing a page whose row count
    /// overruns its bytes (the error [`Page::try_decode_all`] gives).
    pub fn try_rows<'a>(&'a self, schema: &'a Schema) -> Result<PageRows<'a>, CodecError> {
        let width = schema.row_width();
        if 4 + self.rows as usize * width > self.bytes.len() {
            return Err(OVERRUN);
        }
        Ok(PageRows {
            bytes: &self.bytes,
            schema,
            width,
            rows: self.rows as usize,
        })
    }

    /// Read the page's tuples in place; panics where
    /// [`Page::try_rows`] refuses.
    pub fn rows<'a>(&'a self, schema: &'a Schema) -> PageRows<'a> {
        match self.try_rows(schema) {
            Ok(rows) => rows,
            Err(e) => panic!("{e}"),
        }
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

/// A page's tuples read in place ([`Page::rows`]): each read decodes one
/// column of one tuple from the page bytes. An `Int` or `Float` read
/// allocates nothing; a `Str` read builds its [`Value`] when it is read.
/// The page's length was checked once against its row count, so a read
/// cannot overrun it; a corrupt string panics as [`decode_row`] does.
#[derive(Clone, Copy)]
pub struct PageRows<'a> {
    bytes: &'a [u8],
    schema: &'a Schema,
    width: usize,
    rows: usize,
}

impl PageRows<'_> {
    /// Byte position of column `col` of tuple `i`.
    #[inline]
    fn at(&self, i: usize, col: usize) -> usize {
        debug_assert!(i < self.rows, "tuple {i} of {}", self.rows);
        4 + i * self.width + self.schema.offset(col)
    }

    /// The 8 bytes at `at`, which [`Page::try_rows`] has shown are there.
    #[inline]
    fn word(&self, at: usize) -> [u8; 8] {
        self.bytes[at..at + 8].try_into().expect("a slice of 8 bytes")
    }
}

impl Tuples for PageRows<'_> {
    fn len(&self) -> usize {
        self.rows
    }

    #[inline]
    fn int(&self, i: usize, col: usize) -> i64 {
        let ty = self.schema.columns()[col].ty;
        assert_eq!(ty, ColType::Int, "expected an Int column");
        i64::from_le_bytes(self.word(self.at(i, col)))
    }

    fn with_value<R>(&self, i: usize, col: usize, f: impl FnOnce(&Value) -> R) -> R {
        let at = self.at(i, col);
        match self.schema.columns()[col].ty {
            ColType::Int => f(&Value::Int(i64::from_le_bytes(self.word(at)))),
            ColType::Float => f(&Value::Float(f64::from_le_bytes(self.word(at)))),
            ColType::Str(n) => match try_decode_str(n, self.bytes, at) {
                Ok(s) => f(&Value::str(s)),
                Err(e) => panic!("{e}"),
            },
        }
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
    fn a_page_read_in_place_reads_what_it_decodes_to() {
        let s = schema();
        let mut b = PageBuilder::with_page_size(&s, 256);
        for i in 0..9 {
            b.push(&row(i));
        }
        for page in b.finish() {
            let decoded = page.decode_all(&s);
            let rows = page.rows(&s);
            assert_eq!(rows.len(), decoded.len());
            for (i, want) in decoded.iter().enumerate() {
                assert_eq!(rows.int(i, 0), want[0].as_int());
                for (c, v) in want.iter().enumerate() {
                    assert!(rows.with_value(i, c, |got| got == v), "tuple {i} column {c}");
                }
            }
        }
    }

    #[test]
    fn a_row_count_past_the_pages_bytes_is_refused_as_decode_refuses_it() {
        let s = schema();
        let mut b = PageBuilder::with_page_size(&s, 256);
        (0..3).for_each(|i| b.push(&row(i)));
        let page = b.finish().remove(0);
        assert!(page.try_rows(&s).is_ok());
        // The header claims one tuple more than the bytes hold.
        let lying = Page {
            bytes: Arc::clone(&page.bytes),
            rows: page.rows + 1,
        };
        let want = lying.try_decode_all(&s).expect_err("decode refuses it");
        assert_eq!(lying.try_rows(&s).err(), Some(want.clone()));
        assert_eq!(want.reason, "row overruns page");
    }

    #[test]
    #[should_panic(expected = "corrupt page: row overruns page")]
    fn reading_an_overrunning_page_in_place_panics() {
        let s = schema();
        let mut b = PageBuilder::with_page_size(&s, 256);
        b.push(&row(0));
        let page = b.finish().remove(0);
        let lying = Page {
            bytes: page.bytes,
            rows: 2,
        };
        lying.rows(&s);
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
