//! Loading delimited files into columns.
//!
//! A small, dependency-free, byte-level CSV reader. Both CSV paths run the
//! same two functions: [`columns_from_csv_text`] over an in-memory `&str`,
//! and [`CsvRecords`] (the streaming reader behind `ScanEngine::scan_csv`)
//! over a reusable byte buffer filled from [`io::BufRead::fill_buf`]. The
//! two therefore agree on every input by construction:
//!
//! * `record_end` finds the `\n` that ends a record, carrying the
//!   record-level quote toggle across buffer refills;
//! * `for_each_field` splits one record into fields, handing out slices of
//!   the record and copying only a field that holds a `""` escape or text
//!   after its closing quote.
//!
//! The semantics, exactly:
//!
//! * **Record boundaries follow a quote toggle.** Every `"` byte flips the
//!   record-level quote state, wherever it sits in a field, and a record
//!   ends at the first `\n` met outside quotes. A stray mid-field `"`
//!   therefore keeps the rest of its line, and the lines after it up to the
//!   next `"`, in the same record; a quote left open at end of input runs
//!   the last record to the end.
//! * **A quote opens only at the start of a field.** `"…"` is a quoted
//!   field: inside it `""` is a literal `"`, and the delimiter and `\n` are
//!   ordinary characters. After the closing quote the field continues
//!   unquoted up to the next delimiter. A `"` anywhere else in a field is
//!   an ordinary character, and an unterminated quote runs to the end of
//!   the record.
//! * **One trailing `\r` is stripped** from each record (CRLF line
//!   endings); a `\r` anywhere else is data.
//! * **Blank records are skipped**: a record that is empty after the strip
//!   yields no row, so blank and `\r`-only lines vanish.
//! * **The width is that of the widest data row.** With a header, the
//!   first non-blank record names the columns; a header wider than every
//!   data row adds no columns. Shorter rows pad with `""`.
//!
//! The delimiter may be any `char`, multi-byte ones included: a complete
//! UTF-8 sequence can only match at a character boundary.

use crate::column::{Column, SourceTag};
use std::io;
use std::path::Path;

/// Returns the index of the `\n` that ends the current record in `bytes`,
/// flipping `in_quotes` at every `"` on the way. Returns `None` when
/// `bytes` runs out first; `in_quotes` then holds the state to carry into
/// the call on the next chunk. `"` and `\n` never occur inside a
/// multi-byte UTF-8 sequence, so the scan is byte-exact on any input.
fn record_end(bytes: &[u8], in_quotes: &mut bool) -> Option<usize> {
    let mut quoted = *in_quotes;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'"' {
            quoted = !quoted;
        } else if b == b'\n' && !quoted {
            *in_quotes = false;
            return Some(i);
        }
    }
    *in_quotes = quoted;
    None
}

/// Splits `s` at its first `delim` into the field before it and the
/// remainder after it; the remainder is `None` when `s` holds no `delim`.
fn split_field(s: &str, delim: char) -> (&str, Option<&str>) {
    match s.split_once(delim) {
        Some((field, rest)) => (field, Some(rest)),
        None => (s, None),
    }
}

/// Splits one record into fields, calling `emit(index, field)` for each in
/// order, and returns the field count (at least 1).
///
/// Unquoted fields, and quoted fields with no `""` escape and nothing after
/// the closing quote, are slices of `record`; any other field is assembled
/// in `scratch`, which is reused across calls.
fn for_each_field(
    record: &str,
    delim: char,
    scratch: &mut String,
    mut emit: impl FnMut(usize, &str),
) -> usize {
    let mut rest = record;
    let mut index = 0;
    loop {
        let next = if let Some(body) = rest.strip_prefix('"') {
            scratch.clear();
            let mut escaped = false;
            let mut seg = body;
            let (content, after) = loop {
                match seg.find('"') {
                    // Unterminated quote: the field takes the rest of the
                    // record, delimiters and all.
                    None => break (seg, ""),
                    Some(j) => {
                        let (head, tail) = seg.split_at(j);
                        match tail.strip_prefix("\"\"") {
                            Some(unquoted) => {
                                scratch.push_str(head);
                                scratch.push('"');
                                escaped = true;
                                seg = unquoted;
                            }
                            None => break (head, &tail[1..]),
                        }
                    }
                }
            };
            let (tail, next) = split_field(after, delim);
            if !escaped && tail.is_empty() {
                emit(index, content);
            } else {
                scratch.push_str(content);
                scratch.push_str(tail);
                emit(index, scratch);
            }
            next
        } else {
            let (field, next) = split_field(rest, delim);
            emit(index, field);
            next
        };
        index += 1;
        match next {
            Some(r) => rest = r,
            None => return index,
        }
    }
}

/// The non-blank records of in-memory CSV text, each with its trailing
/// `\r` stripped.
fn text_records(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        while !rest.is_empty() {
            let mut in_quotes = false;
            let record = match record_end(rest.as_bytes(), &mut in_quotes) {
                Some(j) => {
                    let record = &rest[..j];
                    rest = &rest[j + 1..];
                    record
                }
                None => std::mem::take(&mut rest),
            };
            let record = record.strip_suffix('\r').unwrap_or(record);
            if !record.is_empty() {
                return Some(record);
            }
        }
        None
    })
}

/// Parses CSV text into columns. When `has_header` is set, the first
/// record becomes the column headers.
pub fn columns_from_csv_text(text: &str, delim: char, has_header: bool) -> Vec<Column> {
    let mut records = text_records(text);
    let mut scratch = String::new();
    let mut headers: Vec<String> = Vec::new();
    if has_header {
        if let Some(record) = records.next() {
            for_each_field(record, delim, &mut scratch, |_, f| {
                headers.push(f.to_owned())
            });
        }
    }
    let mut columns: Vec<Column> = Vec::new();
    for (row, record) in records.enumerate() {
        let width = for_each_field(record, delim, &mut scratch, |i, f| {
            if i == columns.len() {
                // A column first seen in this row: every earlier row was
                // too short to reach it.
                let mut column = Column::new(vec![String::new(); row], SourceTag::Local);
                column.header = headers.get(i).cloned();
                columns.push(column);
            }
            if let Some(column) = columns.get_mut(i) {
                column.values.push(f.to_owned());
            }
        });
        for column in columns.iter_mut().skip(width) {
            column.values.push(String::new());
        }
    }
    columns
}

/// Loads a CSV file into columns.
pub fn load_csv<P: AsRef<Path>>(path: P, delim: char, has_header: bool) -> io::Result<Vec<Column>> {
    let text = std::fs::read_to_string(path)?;
    Ok(columns_from_csv_text(&text, delim, has_header))
}

/// Streaming CSV record reader: yields parsed records one at a time
/// without materializing the file.
///
/// Records are exactly those of the in-memory path
/// ([`columns_from_csv_text`]; the module docs give the rules), read
/// through one reusable byte buffer. Each record is validated as UTF-8
/// once; invalid bytes end the stream with an
/// [`io::ErrorKind::InvalidData`] error at the record that holds them.
/// [`CsvRecords::next_fields`] lends the fields as `&str` without
/// allocating, so callers that only accumulate per-column aggregates
/// (e.g. distinct-value counts) get bounded memory regardless of row
/// count; the [`Iterator`] impl owns each record as a `Vec<String>`.
pub struct CsvRecords<R: io::BufRead> {
    reader: R,
    delim: char,
    record: Vec<u8>,
    scratch: String,
    done: bool,
}

impl<R: io::BufRead> CsvRecords<R> {
    /// Wraps a buffered reader producing `delim`-separated records.
    pub fn new(reader: R, delim: char) -> Self {
        CsvRecords {
            reader,
            delim,
            record: Vec::new(),
            scratch: String::new(),
            done: false,
        }
    }

    /// Reads the next non-blank record, `\r` stripped, into `self.record`.
    /// Returns `false` when the input holds no further record.
    fn fill_record(&mut self) -> io::Result<bool> {
        while !self.done {
            self.record.clear();
            let mut in_quotes = false;
            loop {
                let buf = match self.reader.fill_buf() {
                    Ok(buf) => buf,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if buf.is_empty() {
                    self.done = true;
                    break;
                }
                let (take, ended) = match record_end(buf, &mut in_quotes) {
                    Some(j) => (j, true),
                    None => (buf.len(), false),
                };
                self.record.extend_from_slice(&buf[..take]);
                self.reader.consume(take + usize::from(ended));
                if ended {
                    break;
                }
            }
            if self.record.last() == Some(&b'\r') {
                self.record.pop();
            }
            if !self.record.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reads the next non-blank record and calls `emit(index, field)` for
    /// each of its fields in order. Returns the record's field count,
    /// `None` once the input is exhausted, or the I/O or UTF-8 error that
    /// ends the stream.
    pub fn next_fields(&mut self, emit: impl FnMut(usize, &str)) -> Option<io::Result<usize>> {
        match self.fill_record() {
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
            Ok(false) => None,
            Ok(true) => match std::str::from_utf8(&self.record) {
                Ok(record) => Some(Ok(for_each_field(
                    record,
                    self.delim,
                    &mut self.scratch,
                    emit,
                ))),
                Err(_) => {
                    self.done = true;
                    Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )))
                }
            },
        }
    }
}

impl<R: io::BufRead> Iterator for CsvRecords<R> {
    type Item = io::Result<Vec<String>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut fields = Vec::new();
        let read = self.next_fields(|_, f| fields.push(f.to_owned()))?;
        Some(read.map(|_| fields))
    }
}

/// Writes columns back out as CSV (used by examples to persist findings).
pub fn columns_to_csv_text(columns: &[Column], delim: char) -> String {
    let mut out = String::new();
    let has_headers = columns.iter().any(|c| c.header.is_some());
    let quote = |s: &str| -> String {
        if s.contains(delim) || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    if has_headers {
        let row: Vec<String> = columns
            .iter()
            .map(|c| quote(c.header.as_deref().unwrap_or("")))
            .collect();
        out.push_str(&row.join(&delim.to_string()));
        out.push('\n');
    }
    let height = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    for i in 0..height {
        let row: Vec<String> = columns
            .iter()
            .map(|c| quote(c.values.get(i).map(|s| s.as_str()).unwrap_or("")))
            .collect();
        out.push_str(&row.join(&delim.to_string()));
        out.push('\n');
    }
    out
}

/// The char-at-a-time reader the byte-level one replaced, kept as the
/// differential-test oracle.
#[cfg(test)]
mod oracle {
    use crate::column::{Column, SourceTag};

    /// Parses one CSV record (already split on record boundary) into fields.
    pub(super) fn parse_record(line: &str, delim: char) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cur.push(c);
                }
            } else if c == '"' && cur.is_empty() {
                in_quotes = true;
            } else if c == delim {
                fields.push(std::mem::take(&mut cur));
            } else {
                cur.push(c);
            }
        }
        fields.push(cur);
        fields
    }

    /// Splits raw CSV text into records, honoring quoted newlines.
    pub(super) fn split_records(text: &str) -> Vec<String> {
        let mut records = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        for c in text.chars() {
            match c {
                '"' => {
                    in_quotes = !in_quotes;
                    cur.push(c);
                }
                '\n' if !in_quotes => {
                    if cur.ends_with('\r') {
                        cur.pop();
                    }
                    records.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
        if !cur.is_empty() {
            if cur.ends_with('\r') {
                cur.pop();
            }
            records.push(cur);
        }
        records
    }

    /// The non-blank records of `text`, parsed.
    pub(super) fn records(text: &str, delim: char) -> Vec<Vec<String>> {
        split_records(text)
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| parse_record(r, delim))
            .collect()
    }

    /// The columns of `text`, built from whole parsed rows.
    pub(super) fn columns(text: &str, delim: char, has_header: bool) -> Vec<Column> {
        columns_from_rows(records(text, delim), has_header)
    }

    /// Columns from parsed rows: the first row names them when
    /// `has_header` is set, and the widest data row sets their count.
    pub(super) fn columns_from_rows(mut rows: Vec<Vec<String>>, has_header: bool) -> Vec<Column> {
        if rows.is_empty() {
            return Vec::new();
        }
        let headers: Option<Vec<String>> = if has_header {
            Some(rows.remove(0))
        } else {
            None
        };
        let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut columns: Vec<Column> = (0..width)
            .map(|i| {
                let mut c = Column::new(Vec::new(), SourceTag::Local);
                if let Some(h) = &headers {
                    c.header = h.get(i).cloned();
                }
                c
            })
            .collect();
        for row in &rows {
            for (i, col) in columns.iter_mut().enumerate() {
                col.values.push(row.get(i).cloned().unwrap_or_default());
            }
        }
        columns
    }
}

#[cfg(test)]
mod tests;
