//! The committed full-scale report, `repro_output.txt`: the bytes every
//! batch run must reproduce, and the per-experiment sections every warm
//! served run must match.

use std::collections::BTreeMap;
use std::path::Path;

/// The rule around each experiment id in `repro all` output.
const RULE: &str = "====================";

pub struct Golden {
    bytes: Vec<u8>,
    /// Experiment id → section body: the report text plus its trailing
    /// newline, exactly what `POST /run/{id}?format=text` returns.
    sections: BTreeMap<String, String>,
}

impl Golden {
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut sections = BTreeMap::new();
        let mut current: Option<(String, String)> = None;
        for line in text.split_inclusive('\n') {
            if let Some(id) = header_id(line) {
                if let Some((id, body)) = current.take() {
                    sections.insert(id, body);
                }
                current = Some((id.to_string(), String::new()));
            } else if let Some((_, body)) = current.as_mut() {
                body.push_str(line);
            }
        }
        if let Some((id, body)) = current {
            sections.insert(id, body);
        }
        if sections.is_empty() {
            return Err(format!("{} holds no experiment sections", path.display()));
        }
        Ok(Golden {
            bytes: text.into_bytes(),
            sections,
        })
    }

    /// Whether `stdout` is byte-identical to the committed report.
    pub fn matches(&self, stdout: &[u8]) -> bool {
        stdout == self.bytes.as_slice()
    }

    /// The section of one experiment.
    pub fn section(&self, id: &str) -> Option<&str> {
        self.sections.get(id).map(String::as_str)
    }

    /// What `repro all` prints for these `(id, report)` pairs, for
    /// checking reports produced in-process.
    pub fn assemble(reports: &[(&str, String)]) -> String {
        reports
            .iter()
            .map(|(id, report)| format!("{RULE} {id} {RULE}\n{report}\n"))
            .collect()
    }
}

fn header_id(line: &str) -> Option<&str> {
    line.trim_end_matches('\n')
        .strip_prefix(RULE)?
        .strip_prefix(' ')?
        .strip_suffix(RULE)?
        .strip_suffix(' ')
        .filter(|id| !id.is_empty() && !id.contains([' ', '=']))
}
