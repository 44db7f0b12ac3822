//! Minimal, dependency-free CSV reader/writer.
//!
//! Supports the RFC-4180 dialect the paper's corpora ship in: comma
//! separation, `"`-quoted fields with `""` escapes, embedded commas and
//! newlines inside quoted fields, and both LF and CRLF record terminators.
//! Implemented from scratch because no CSV crate is on the approved offline
//! dependency list.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::table::Table;

/// Errors produced while parsing CSV input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A quoted field was still open when the input ended.
    UnterminatedQuote { line: usize },
    /// A closing quote was followed by a character other than a separator,
    /// record terminator, or another quote.
    InvalidQuoteEscape { line: usize },
    /// Records have inconsistent field counts.
    RaggedRow {
        row: usize,
        expected: usize,
        got: usize,
    },
    /// Underlying I/O failure (message-only to stay `Clone`/`Eq`).
    Io(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting near line {line}")
            }
            CsvError::InvalidQuoteEscape { line } => {
                write!(f, "invalid character after closing quote near line {line}")
            }
            CsvError::RaggedRow { row, expected, got } => {
                write!(f, "row {row} has {got} fields, expected {expected}")
            }
            CsvError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parse CSV text into rows of fields. Accepts a trailing newline; an empty
/// input yields no rows. Rows may be ragged (caller decides whether to care;
/// [`read_table`] enforces rectangularity).
pub fn parse(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut line = 1usize;
    // True when the current field started with a quote and we are inside it.
    let mut in_quotes = false;
    // True when anything was written to `field`/`row` for the current record.
    let mut record_dirty = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        // Next char must be sep/terminator/EOF.
                        match chars.peek() {
                            None | Some(',') | Some('\n') | Some('\r') => {}
                            Some(_) => return Err(CsvError::InvalidQuoteEscape { line }),
                        }
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => {
                in_quotes = true;
                record_dirty = true;
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                record_dirty = true;
            }
            '\r' => {
                // Swallow the LF of a CRLF pair if present; bare CR also
                // terminates a record (old-Mac style).
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                line += 1;
                if record_dirty || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    record_dirty = false;
                }
            }
            '\n' => {
                line += 1;
                if record_dirty || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    record_dirty = false;
                }
            }
            _ => {
                field.push(c);
                record_dirty = true;
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line });
    }
    if record_dirty || !field.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Quote a field if it contains separators, quotes, or newlines.
fn escape_field(field: &str, out: &mut String) {
    let needs_quoting = field.contains([',', '"', '\n', '\r']);
    if needs_quoting {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialise rows to CSV text with `\n` terminators.
pub fn write(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_field(field, &mut out);
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text into a [`Table`]: first record is the header, remaining
/// records are data and must all have the header's width.
pub fn read_table(name: &str, input: &str) -> Result<Table, CsvError> {
    let mut rows = parse(input)?;
    if rows.is_empty() {
        return Ok(Table::new(name, Vec::<String>::new()));
    }
    let headers = rows.remove(0);
    let width = headers.len();
    let mut table = Table::new(name, headers);
    for (i, row) in rows.into_iter().enumerate() {
        if row.len() != width {
            return Err(CsvError::RaggedRow {
                row: i + 2,
                expected: width,
                got: row.len(),
            });
        }
        table.push_row(row);
    }
    Ok(table)
}

/// Serialise a [`Table`] (header + rows) to CSV text.
pub fn write_table(table: &Table) -> String {
    let mut rows = Vec::with_capacity(table.n_rows() + 1);
    rows.push(table.headers().to_vec());
    for r in 0..table.n_rows() {
        rows.push(table.row(r).into_iter().map(str::to_string).collect());
    }
    write(&rows)
}

/// Load a table from a CSV file on disk.
pub fn read_table_file(path: &Path) -> Result<Table, CsvError> {
    let text = fs::read_to_string(path).map_err(|e| CsvError::Io(e.to_string()))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string());
    read_table(&name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_rows() {
        let rows = parse("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn no_trailing_newline() {
        let rows = parse("a,b\n1,2").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn quoted_field_with_comma_and_newline() {
        let rows = parse("name,desc\n\"Smith, John\",\"line1\nline2\"\n").unwrap();
        assert_eq!(rows[1][0], "Smith, John");
        assert_eq!(rows[1][1], "line1\nline2");
    }

    #[test]
    fn escaped_quotes() {
        let rows = parse("\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(rows[0][0], "say \"hi\"");
    }

    #[test]
    fn crlf_records() {
        let rows = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn empty_fields_preserved() {
        let rows = parse("a,,c\n,,\n").unwrap();
        assert_eq!(rows[0], vec!["a", "", "c"]);
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(
            parse("\"abc"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn invalid_quote_escape_is_error() {
        assert!(matches!(
            parse("\"abc\"x,y"),
            Err(CsvError::InvalidQuoteEscape { .. })
        ));
    }

    #[test]
    fn empty_input() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("\n").unwrap().is_empty());
    }

    #[test]
    fn roundtrip_with_special_chars() {
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "multi\nline".to_string()],
        ];
        let text = write(&rows);
        assert_eq!(parse(&text).unwrap(), rows);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", vec!["k", "v"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["b,x".into(), "2".into()]);
        let text = write_table(&t);
        let t2 = read_table("demo", &text).unwrap();
        assert_eq!(t2.n_rows(), 2);
        assert_eq!(t2.cell(1, 0), "b,x");
    }

    #[test]
    fn ragged_rows_rejected_by_read_table() {
        let err = read_table("x", "a,b\n1\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::RaggedRow {
                row: 2,
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn error_display_messages() {
        let e = CsvError::RaggedRow {
            row: 3,
            expected: 2,
            got: 5,
        };
        assert!(e.to_string().contains("row 3"));
        assert!(CsvError::Io("boom".into()).to_string().contains("boom"));
    }
}
