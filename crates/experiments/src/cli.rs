//! Shared command-line handling and output for the figure, table and smoke
//! binaries.
//!
//! Every `fig*` / `table*` binary reproduces one figure of the paper with a
//! fixed, deterministic default configuration, so the only supported flags
//! are informational, the shared `--json` output switch, and the few extra
//! flags a binary declares to [`handle_default_args`]. Unrecognized
//! arguments are warned about and ignored rather than causing a panic, so
//! stray arguments never abort a run.
//!
//! Output goes through one record writer. A figure binary declares each of
//! its [`Table`]s once (a name, a title, and columns with a key and a
//! [`Format`] each) and fills in rows; the tab-separated view and the
//! `--json` view are two renderings of the same rows, so they always carry
//! the same columns at the same precision. A smoke binary builds one
//! [`Record`] (scalars, nested objects, arrays of row objects), checks its
//! performance [`Gates`], and hands both to [`write_smoke_record`], which
//! writes the record before it reports a failed gate.

use std::fmt::Write as _;

/// Flags shared by every experiment binary, parsed by
/// [`handle_default_args`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliArgs {
    /// `--json` was passed: [`Table::print`] emits one JSON object per row
    /// instead of the tab-separated view.
    pub json: bool,
    /// The binary's extra flags that were passed.
    pub flags: Vec<&'static str>,
}

impl CliArgs {
    /// Whether the extra flag `flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

/// Handles the standard arguments shared by all experiment binaries.
///
/// * `--help` / `-h` — print usage and exit successfully.
/// * `--json` — request machine-readable JSON rows (returned in
///   [`CliArgs::json`]).
/// * any of `extra_flags` — recorded in [`CliArgs::flags`].
/// * anything else — warn on stderr and continue with the defaults.
///
/// Call this first in every binary's `main`.
pub fn handle_default_args(about: &str, extra_flags: &[&'static str]) -> CliArgs {
    let mut args = std::env::args();
    let name = args
        .next()
        .map(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or(p.clone())
        })
        .unwrap_or_else(|| "experiment".to_string());
    let mut parsed = CliArgs::default();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{name}: {about}");
                println!();
                let extra: String = extra_flags.iter().map(|f| format!(" [{f}]")).collect();
                println!("Usage: {name} [--help] [--json]{extra}");
                println!();
                println!(
                    "Runs the experiment with its deterministic default configuration \
                     and prints tab-separated rows to stdout. With --json, it emits \
                     the same rows as machine-readable JSON (one object per line) instead."
                );
                std::process::exit(0);
            }
            "--json" => parsed.json = true,
            other => match extra_flags.iter().find(|f| **f == other) {
                Some(flag) => parsed.flags.push(flag),
                None => eprintln!("warning: unrecognized argument '{other}' ignored"),
            },
        }
    }
    parsed
}

/// How a column or record field renders its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// An integer ([`Cell::Int`]).
    Int,
    /// A float with this many decimals ([`Cell::Float`]).
    Fixed(usize),
    /// A float in scientific notation with this many decimals.
    Sci(usize),
    /// A string ([`Cell::Str`]), escaped in JSON.
    Str,
    /// A boolean ([`Cell::Bool`]); [`Cell::Null`] renders as `null`.
    Bool,
}

/// One value of a table row or record field.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer.
    Int(i64),
    /// A float; non-finite values render as `null` in JSON.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// No value (a skipped gate).
    Null,
}

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::Int(i64::try_from(v).expect("integer cell fits in i64"))
            }
        }
    )*};
}
int_cells!(usize, u64);

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_string())
    }
}

/// A table row: a tuple with one value per column (or the cells
/// themselves, for a table whose columns are only known at run time).
pub trait Row {
    /// The row's cells, in column order.
    fn cells(self) -> Vec<Cell>;
}

impl Row for Vec<Cell> {
    fn cells(self) -> Vec<Cell> {
        self
    }
}

macro_rules! tuple_rows {
    ($(($($v:ident: $t:ident),+)),+) => {$(
        impl<$($t: Into<Cell>),+> Row for ($($t,)+) {
            fn cells(self) -> Vec<Cell> {
                let ($($v,)+) = self;
                vec![$($v.into()),+]
            }
        }
    )+};
}
tuple_rows!(
    (a: A),
    (a: A, b: B),
    (a: A, b: B, c: C),
    (a: A, b: B, c: C, d: D),
    (a: A, b: B, c: C, d: D, e: E),
    (a: A, b: B, c: C, d: D, e: E, f: F),
    (a: A, b: B, c: C, d: D, e: E, f: F, g: G, h: H),
    (a: A, b: B, c: C, d: D, e: E, f: F, g: G, h: H, i: I, j: J)
);

/// Renders one value. JSON quotes and escapes strings and writes a
/// non-finite float as `null`; TSV writes strings with tabs and newlines
/// replaced by spaces, so every row stays one line of the same width.
fn render(format: Format, cell: &Cell, json: bool) -> String {
    match (format, cell) {
        (_, Cell::Null) => "null".to_string(),
        (Format::Int, Cell::Int(v)) => v.to_string(),
        (Format::Fixed(_) | Format::Sci(_), Cell::Float(v)) if json && !v.is_finite() => {
            "null".to_string()
        }
        (Format::Fixed(decimals), Cell::Float(v)) => format!("{v:.decimals$}"),
        (Format::Sci(decimals), Cell::Float(v)) => format!("{v:.decimals$e}"),
        (Format::Str, Cell::Str(s)) if json => json_string(s),
        (Format::Str, Cell::Str(s)) => s.replace(['\t', '\n', '\r'], " "),
        (Format::Bool, Cell::Bool(b)) => b.to_string(),
        (format, cell) => panic!("a {format:?} field cannot hold {cell:?}"),
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One output table of a figure binary: its rows render as a tab-separated
/// block (`# title`, a header line, one line per row, a blank line) or as
/// one JSON object per row, tagged `"experiment": name`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    title: String,
    columns: Vec<(String, Format)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table. `name` is the JSON rows' `experiment` tag and
    /// `title` the TSV block's comment line.
    pub fn new<K: Into<String>>(
        name: &str,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = (K, Format)>,
    ) -> Self {
        let title = title.into();
        assert!(!title.contains('\n'), "a table title is one line");
        Self {
            name: name.to_string(),
            title,
            columns: columns.into_iter().map(|(k, f)| (k.into(), f)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, one value per column.
    pub fn row(&mut self, row: impl Row) {
        let cells = row.cells();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table {} has {} columns",
            self.name,
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// One row's rendered cells, each with its column key.
    fn cells<'a>(&'a self, row: &'a [Cell], json: bool) -> impl Iterator<Item = (&'a str, String)> {
        self.columns
            .iter()
            .zip(row)
            .map(move |((key, format), cell)| (key.as_str(), render(*format, cell, json)))
    }

    /// The tab-separated view.
    pub(crate) fn tsv(&self) -> String {
        let header: Vec<&str> = self.columns.iter().map(|(key, _)| key.as_str()).collect();
        let mut out = format!("# {}\n{}\n", self.title, header.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = self.cells(row, false).map(|(_, cell)| cell).collect();
            out += &(cells.join("\t") + "\n");
        }
        out + "\n"
    }

    /// The JSON view: one object per row, one row per line.
    pub(crate) fn json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = write!(out, "{{\"experiment\": {}", json_string(&self.name));
            for (key, cell) in self.cells(row, true) {
                let _ = write!(out, ", {}: {cell}", json_string(key));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Prints the view `args` asks for.
    pub fn print(&self, args: &CliArgs) {
        if args.json {
            print!("{}", self.json_lines());
        } else {
            print!("{}", self.tsv());
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Field {
    Value(Format, Cell),
    List(Format, Vec<Cell>),
    Object(Record),
    Rows(Vec<Record>),
}

/// A JSON object built field by field, each key next to its value: a smoke
/// binary's benchmark record, or one row object inside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, Field)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &str, field: Field) -> Self {
        self.fields.push((key.to_string(), field));
        self
    }

    /// Adds a scalar field rendered with `format`.
    pub fn value(self, key: &str, format: Format, value: impl Into<Cell>) -> Self {
        self.field(key, Field::Value(format, value.into()))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: impl Into<Cell>) -> Self {
        self.value(key, Format::Int, value)
    }

    /// Adds a float field with `decimals` decimals.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        self.value(key, Format::Fixed(decimals), value)
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.value(key, Format::Str, value)
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.value(key, Format::Bool, value)
    }

    /// Adds an array of floats with `decimals` decimals each.
    pub fn fixed_list(self, key: &str, values: &[f64], decimals: usize) -> Self {
        let cells = values.iter().map(|&v| Cell::Float(v)).collect();
        self.field(key, Field::List(Format::Fixed(decimals), cells))
    }

    /// Adds a nested object.
    pub fn object(self, key: &str, record: Record) -> Self {
        self.field(key, Field::Object(record))
    }

    /// Adds an array of row objects.
    pub fn rows(self, key: &str, rows: Vec<Record>) -> Self {
        self.field(key, Field::Rows(rows))
    }

    /// The record as JSON, one field per line at `depth` levels of
    /// indentation, or on one line with `None` (a row object).
    fn json(&self, depth: Option<usize>) -> String {
        let fields = self.fields.iter().map(|(key, field)| {
            format!("{}: {}", json_string(key), field.json(depth.map(|d| d + 1)))
        });
        block(('{', '}'), fields.collect(), depth)
    }

    /// The record as a pretty-printed JSON document.
    fn to_json(&self) -> String {
        self.json(Some(0)) + "\n"
    }
}

impl Field {
    fn json(&self, depth: Option<usize>) -> String {
        match self {
            Field::Value(format, cell) => render(*format, cell, true),
            Field::List(format, cells) => {
                let items: Vec<String> = cells.iter().map(|c| render(*format, c, true)).collect();
                format!("[{}]", items.join(", "))
            }
            Field::Object(record) => record.json(depth),
            Field::Rows(rows) => block(
                ('[', ']'),
                rows.iter().map(|row| row.json(None)).collect(),
                Some(depth.unwrap_or(0)),
            ),
        }
    }
}

/// `items` between `brackets`, one per line indented `depth + 1` levels
/// (the closing bracket at `depth`), or on one line with `None`.
fn block((open, close): (char, char), items: Vec<String>, depth: Option<usize>) -> String {
    match depth {
        _ if items.is_empty() => format!("{open}{close}"),
        None => format!("{open} {} {close}", items.join(", ")),
        Some(depth) => {
            let pad = "  ".repeat(depth + 1);
            let items = items.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{items}\n{}{close}", "  ".repeat(depth))
        }
    }
}

/// A smoke binary's performance gates: each passes, fails, or is skipped
/// (`null`, e.g. a thread-scaling gate on a one-core machine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gates {
    gates: Vec<(&'static str, Option<bool>, String)>,
}

impl Gates {
    /// Records gate `name`; `failure` is reported if `pass` is false.
    pub fn check(&mut self, name: &'static str, pass: bool, failure: String) {
        self.gates.push((name, Some(pass), failure));
    }

    /// Records gate `name` as not evaluated.
    pub fn skip(&mut self, name: &'static str) {
        self.gates.push((name, None, String::new()));
    }

    /// The failure messages of the gates that failed.
    fn failures(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter(|(_, pass, _)| *pass == Some(false))
            .map(|(_, _, failure)| failure.as_str())
            .collect()
    }

    fn record(&self) -> Record {
        let fields = self.gates.iter().map(|(name, pass, _)| {
            let cell = pass.map_or(Cell::Null, Cell::Bool);
            (name.to_string(), Field::Value(Format::Bool, cell))
        });
        Record {
            fields: fields.collect(),
        }
    }
}

/// The number of hardware threads this process may use (1 if unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A smoke binary's record: `"bench": bench` and `available_cores` first,
/// then `fields`, then `gates`.
fn smoke_record(bench: &str, fields: Record, gates: &Gates) -> Record {
    let mut record = Record::new()
        .str("bench", bench)
        .int("available_cores", available_cores());
    record.fields.extend(fields.fields);
    record.object("gates", gates.record())
}

/// Writes a smoke binary's record and exits non-zero if a gate failed.
///
/// The output path is the first argument (`default_output` without one).
/// The record (`bench`, `available_cores`, `fields`, then the `gates`
/// object) is written and printed, then
/// `wrote <path>`; only then is each failed gate reported on stderr, so a
/// failing run still leaves its measurements on disk.
pub fn write_smoke_record(default_output: &str, bench: &str, fields: Record, gates: Gates) {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| default_output.to_string());
    let json = smoke_record(bench, fields, &gates).to_json();
    std::fs::write(&output, &json).expect("write benchmark record");
    print!("{json}");
    println!("wrote {output}");
    let failures = gates.failures();
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("gate failed: {failure}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `handle_default_args` reads the process arguments and may call
    // `process::exit`, so it is exercised end-to-end by the workspace smoke
    // tooling (`ci.sh` runs every binary with `--help`) rather than here.
    // This test only pins the no-argument fast path.
    #[test]
    fn no_arguments_is_a_no_op() {
        // The test harness's own argv never contains --help or --json, and
        // extra harness arguments must not abort.
        let args = handle_default_args("test about", &["--sweep"]);
        assert!(!args.json);
        assert!(!args.has("--sweep"));
    }

    #[test]
    fn json_rows_are_valid_objects() {
        let mut table = Table::new(
            "fig00",
            "demo",
            [
                ("label", Format::Str),
                ("n", Format::Int),
                ("mse", Format::Fixed(3)),
                ("fit", Format::Sci(2)),
                ("ok", Format::Bool),
            ],
        );
        table.row(("a\"b\\c\n", 3usize, 0.5, 1234.5, true));
        table.row(("x\ty\u{1}é", 4usize, f64::NAN, f64::INFINITY, false));
        assert_eq!(
            table.tsv(),
            "# demo\nlabel\tn\tmse\tfit\tok\n\
             a\"b\\c \t3\t0.500\t1.23e3\ttrue\n\
             x y\u{1}é\t4\tNaN\tinf\tfalse\n\n"
        );
        assert_eq!(
            table.json_lines(),
            "{\"experiment\": \"fig00\", \"label\": \"a\\\"b\\\\c\\n\", \"n\": 3, \
             \"mse\": 0.500, \"fit\": 1.23e3, \"ok\": true}\n\
             {\"experiment\": \"fig00\", \"label\": \"x\\ty\\u0001é\", \"n\": 4, \
             \"mse\": null, \"fit\": null, \"ok\": false}\n"
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn a_cell_must_match_its_column_format() {
        let mut table = Table::new("t", "t", [("n", Format::Int)]);
        table.row((0.5,));
        let _ = table.tsv();
    }

    #[test]
    fn records_nest_objects_rows_and_lists() {
        let record = Record::new()
            .str("bench", "demo")
            .rows(
                "rows",
                vec![Record::new().int("n", 1usize).fixed("x", 0.25, 2)],
            )
            .rows("empty", Vec::new())
            .object("inner", Record::new().fixed("y", f64::NAN, 1))
            .fixed_list("trajectory", &[0.0, 0.5], 4);
        assert_eq!(
            record.to_json(),
            "{\n  \"bench\": \"demo\",\n  \"rows\": [\n    { \"n\": 1, \"x\": 0.25 }\n  ],\n  \
             \"empty\": [],\n  \"inner\": {\n    \"y\": null\n  },\n  \
             \"trajectory\": [0.0000, 0.5000]\n}\n"
        );
    }

    #[test]
    fn gates_render_pass_fail_and_skipped() {
        let mut gates = Gates::default();
        gates.check("fast", true, "slow".into());
        gates.check("small", false, "too big".into());
        gates.skip("scaling");
        assert_eq!(gates.failures(), ["too big"]);
        let record = smoke_record("demo", Record::new().int("n", 2usize), &gates);
        let json = record.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"demo\",\n  \"available_cores\": "));
        assert!(json.ends_with(
            "  \"n\": 2,\n  \"gates\": {\n    \"fast\": true,\n    \"small\": false,\n    \
             \"scaling\": null\n  }\n}\n"
        ));
    }
}
