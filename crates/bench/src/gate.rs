//! What an experiment hands back, and the one gate every experiment's
//! checks pass through.

use std::path::Path;

use simnet::metrics::{json_string, validate_json};
use simnet::{render_table, Series};

/// The outcome of one experiment: the text it prints, the checks it gates
/// on, and the sections of its machine-readable sidecar.
#[derive(Debug, Default)]
pub struct Report {
    /// Printed output: tables and check lines, in order.
    pub text: String,
    /// `(description, ok)` pairs; any `false` fails the gate.
    pub checks: Vec<(String, bool)>,
    /// `(key, JSON value)` pairs, written to the sidecar in order.
    pub sections: Vec<(String, String)>,
}

impl Report {
    /// Appends one line of printed output.
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends an aligned table of `series`, one row per payload.
    pub fn table(&mut self, title: &str, unit: &str, series: &[Series]) {
        self.text.push_str(&render_table(title, unit, series));
    }

    /// Records a check and prints it as a checkbox line.
    pub fn check(&mut self, desc: impl Into<String>, ok: bool) {
        let desc = desc.into();
        self.say(format!("- [{}] {desc}", if ok { "x" } else { " " }));
        self.checks.push((desc, ok));
    }

    /// Adds a sidecar section; `json` must be one complete JSON value.
    pub fn section(&mut self, key: &str, json: String) {
        self.sections.push((key.to_string(), json));
    }

    /// The sidecar: one object holding every section, then `"checks"`.
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(desc, ok)| format!("{}:{ok}", json_string(desc)))
            .collect();
        let mut members: Vec<String> = self
            .sections
            .iter()
            .map(|(key, json)| format!("{}:{json}", json_string(key)))
            .collect();
        members.push(format!("\"checks\":{{{}}}", checks.join(",")));
        format!("{{{}}}", members.join(","))
    }
}

/// Renders series as `{"label":{"payload":value,…},…}`.
pub fn json_series(series: &[Series]) -> String {
    let members: Vec<String> = series
        .iter()
        .map(|s| {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|p| format!("\"{}\":{:.3}", p.payload_bytes, p.value))
                .collect();
            format!("{}:{{{}}}", json_string(&s.label), points.join(","))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Validates the report's sidecar, writes it to `dir/<name>.json` and
/// judges the checks. `Ok` carries the summary lines of a passing gate;
/// `Err` carries the same lines after one `REGRESSION:` line per failed
/// check, and the caller must exit non-zero.
pub fn gate(name: &str, report: &Report, dir: &Path) -> Result<String, String> {
    let json = report.to_json();
    validate_json(&json).expect("sidecar JSON must be valid");
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir).expect("sidecar directory");
    std::fs::write(&path, &json).expect("write sidecar");

    let failed: Vec<&str> = report
        .checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(desc, _)| desc.as_str())
        .collect();
    let summary = format!(
        "wrote {} ({} bytes)\n# gate: {}/{} checks passed",
        path.display(),
        json.len(),
        report.checks.len() - failed.len(),
        report.checks.len()
    );
    if failed.is_empty() {
        return Ok(summary);
    }
    let mut out = String::new();
    for desc in failed {
        out.push_str(&format!("REGRESSION: {desc}\n"));
    }
    Err(out + &summary)
}
