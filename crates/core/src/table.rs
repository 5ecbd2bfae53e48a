//! Summary tables: named columns of typed [`Cell`]s, written as CSV by
//! [`Table::csv`] and as a JSON manifest by [`Table::manifest`]. Both
//! read the same cells, so a manifest value is always its CSV field's
//! value: the same decimals, and `null` where the CSV field is empty.
//! [`crate::manifest::validate_table_manifest`] checks a manifest
//! against its CSV header.
//!
//! ```
//! use commsense_core::table::{Cell, Table};
//!
//! let cells = vec![Cell::text("mesh 8x8"), Cell::fixed(1.3391, 3), Cell::fixed(None, 3)];
//! let table = Table::new("topology,ratio,crossover", [cells]);
//! assert_eq!(table.csv(), "topology,ratio,crossover\nmesh 8x8,1.339,\n");
//! assert_eq!(
//!     table.manifest("commsense-scale-manifest"),
//!     "{\"kind\":\"commsense-scale-manifest\",\"schema_version\":1,\"rows\":\
//!      [{\"topology\":\"mesh 8x8\",\"ratio\":1.339,\"crossover\":null}]}\n"
//! );
//! ```

use std::fmt::{self, Write as _};

use crate::json::{self, Value};
use crate::manifest::TABLE_SCHEMA_VERSION;

/// One typed table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, without commas, quotes or line breaks (CSV fields are not
    /// quoted).
    Text(String),
    /// An exact integer.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// A finite `f64` printed with this many decimals.
    Fixed(f64, usize),
    /// A missing value: an empty CSV field, `null` in the manifest.
    Empty,
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// An integer cell; [`Cell::Empty`] when `n` is `None`.
    pub fn int(n: impl Into<Option<u64>>) -> Cell {
        n.into().map_or(Cell::Empty, Cell::Int)
    }

    /// `x` with `decimals` decimals; [`Cell::Empty`] when `x` is `None`
    /// or not finite.
    pub fn fixed(x: impl Into<Option<f64>>, decimals: usize) -> Cell {
        match x.into() {
            Some(x) if x.is_finite() => Cell::Fixed(x, decimals),
            _ => Cell::Empty,
        }
    }
}

impl fmt::Display for Cell {
    /// The cell's CSV field: empty for [`Cell::Empty`]. A width in the
    /// format spec pads it, so a stdout table can print cells directly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.pad(s),
            Cell::Int(n) => n.fmt(f),
            Cell::Bool(b) => b.fmt(f),
            Cell::Fixed(x, d) => f.pad(&format!("{x:.d$}")),
            Cell::Empty => f.pad(""),
        }
    }
}

impl Value for Cell {
    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Text(s) => s.write_json(out),
            Cell::Int(n) => n.write_json(out),
            Cell::Bool(b) => b.write_json(out),
            Cell::Fixed(x, d) => json::Fixed(*x, *d).write_json(out),
            Cell::Empty => out.push_str("null"),
        }
    }
}

/// Rows of cells under named columns.
#[derive(Debug)]
pub struct Table {
    header: &'static str,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table of `rows` under `header`, the CSV header line: the column
    /// names, separated by commas.
    ///
    /// # Panics
    ///
    /// Panics if a row does not have one cell per column, or if a text
    /// cell holds a comma, a quote or a line break.
    pub fn new(header: &'static str, rows: impl IntoIterator<Item = Vec<Cell>>) -> Table {
        let columns = header.split(',').count();
        let rows: Vec<Vec<Cell>> = rows.into_iter().collect();
        for row in &rows {
            assert_eq!(row.len(), columns, "one cell per column: {row:?}");
            let unquotable =
                |c: &Cell| matches!(c, Cell::Text(s) if s.contains([',', '"', '\n', '\r']));
            assert!(
                !row.iter().any(unquotable),
                "unquotable CSV text in {row:?}"
            );
        }
        Table { header, rows }
    }

    /// The CSV header line, without its line break.
    pub fn header(&self) -> &'static str {
        self.header
    }

    /// The table as CSV: the header, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = format!("{}\n", self.header);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{cell}");
            }
            out.push('\n');
        }
        out
    }

    /// The table as one line of JSON: `kind`, the schema version, and one
    /// object per row keyed by the column names in order.
    pub fn manifest(&self, kind: &str) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("kind", kind)
                .field("schema_version", TABLE_SCHEMA_VERSION)
                .array("rows", |a| {
                    for row in &self.rows {
                        a.object(|o| {
                            for (name, cell) in self.header.split(',').zip(row) {
                                o.field(name, cell);
                            }
                        });
                    }
                });
        });
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::manifest::validate_table_manifest;

    const HEADER: &str = "name,count,ok,ratio,missing";

    fn table() -> Table {
        Table::new(
            HEADER,
            [
                vec![
                    Cell::text("mesh 8x8"),
                    Cell::int(64),
                    Cell::Bool(true),
                    Cell::fixed(1.3391, 3),
                    Cell::fixed(None, 2),
                ],
                vec![
                    Cell::text("é"),
                    Cell::int(Some(9_007_199_254_740_993)),
                    Cell::Bool(false),
                    Cell::fixed(-0.5, 0),
                    Cell::fixed(f64::NAN, 2),
                ],
                vec![
                    Cell::text(String::new()),
                    Cell::int(None),
                    Cell::Empty,
                    Cell::fixed(2.0 / 3.0, 4),
                    Cell::fixed(Some(12.0), 1),
                ],
            ],
        )
    }

    #[test]
    fn csv_prints_each_cell_by_its_type() {
        assert_eq!(
            table().csv(),
            "name,count,ok,ratio,missing\n\
             mesh 8x8,64,true,1.339,\n\
             é,9007199254740993,false,-0,\n\
             ,,,0.6667,12.0\n"
        );
    }

    /// Every manifest row holds the values of its CSV line, field by
    /// field: text equal, integers and decimals equal as numbers (and
    /// as text, where the JSON number is exact), booleans equal, and an
    /// empty field exactly where the manifest has `null`.
    #[test]
    fn every_manifest_row_equals_its_csv_line() {
        let table = table();
        let csv = table.csv();
        let manifest = table.manifest("commsense-test-manifest");
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        validate_table_manifest(&manifest, "commsense-test-manifest", header).unwrap();
        let parsed = Json::parse(&manifest).unwrap();
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), table.rows.len());
        for (row, line) in rows.iter().zip(lines) {
            let fields: Vec<&str> = line.split(',').collect();
            let values = row.as_obj().unwrap();
            assert_eq!(values.len(), fields.len(), "{line}");
            for ((key, value), (field, name)) in
                values.iter().zip(fields.iter().zip(HEADER.split(',')))
            {
                assert_eq!(key, name);
                match value {
                    Json::Null => assert_eq!(*field, "", "{key} in {line}"),
                    Json::Str(s) => assert_eq!(s, field, "{key} in {line}"),
                    Json::Bool(b) => assert_eq!(b.to_string(), *field, "{key} in {line}"),
                    Json::Num(x) => {
                        assert_eq!(field.parse::<f64>().ok(), Some(*x), "{key} in {line}")
                    }
                    other => panic!("{key}: not a scalar: {other:?}"),
                }
            }
        }
        // The manifest carries the CSV's exact number text.
        assert!(manifest.contains("\"ratio\":1.339,"));
        assert!(manifest.contains("\"count\":9007199254740993,"));
    }

    #[test]
    fn a_cell_displays_as_its_csv_field_padded_to_the_width() {
        assert_eq!(format!("{:>6}", Cell::fixed(1.3391, 2)), "  1.34");
        assert_eq!(format!("{:>4}|", Cell::fixed(None, 2)), "    |");
        assert_eq!(format!("{:<4}|", Cell::text("ab")), "ab  |");
        assert_eq!(format!("{:>5}", Cell::int(42)), "   42");
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_short_row_is_rejected() {
        Table::new(HEADER, [vec![Cell::Empty]]);
    }

    #[test]
    #[should_panic(expected = "unquotable CSV text")]
    fn text_with_a_comma_is_rejected() {
        Table::new("a", [vec![Cell::text("x,y")]]);
    }
}
