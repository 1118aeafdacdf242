//! The committed baseline: pre-existing findings that are tolerated
//! (with a budget) so a new rule can land before its debt is paid
//! off. Entries match on `(rule, file, snippet)` — deliberately not
//! on line numbers, so unrelated edits above a finding do not churn
//! the baseline file.

use crate::Finding;
use serde::{Deserialize, Serialize};

/// The `lint-baseline.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Baseline {
    /// Format version; currently 1.
    pub schema: u32,
    /// The tolerated findings.
    pub findings: Vec<BaselineEntry>,
}

/// One tolerated finding shape with a count budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// The trimmed source line of the finding.
    pub snippet: String,
    /// How many findings of this shape are tolerated.
    pub count: u32,
}

impl Baseline {
    /// An empty baseline (the shipped state once debt is burned down).
    pub fn empty() -> Self {
        Baseline {
            schema: 1,
            findings: Vec::new(),
        }
    }

    /// Builds a baseline that exactly covers `findings`.
    pub fn covering(findings: &[Finding]) -> Self {
        let mut entries: Vec<BaselineEntry> = Vec::new();
        for f in findings {
            if let Some(e) = entries
                .iter_mut()
                .find(|e| e.rule == f.rule && e.file == f.file && e.snippet == f.snippet)
            {
                e.count += 1;
            } else {
                entries.push(BaselineEntry {
                    rule: f.rule.clone(),
                    file: f.file.clone(),
                    snippet: f.snippet.clone(),
                    count: 1,
                });
            }
        }
        Baseline {
            schema: 1,
            findings: entries,
        }
    }

    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// A human-readable message when the JSON does not parse or the
    /// schema version is unknown.
    pub fn parse(text: &str) -> Result<Self, String> {
        let b: Baseline =
            serde_json::from_str(text).map_err(|e| format!("baseline did not parse: {e}"))?;
        if b.schema != 1 {
            return Err(format!("unknown baseline schema {}", b.schema));
        }
        Ok(b)
    }

    /// Renders the document as pretty JSON (plus trailing newline).
    pub fn render(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            unreachable!("a baseline of plain strings/ints always serializes: {e}")
        });
        s.push('\n');
        s
    }
}

/// The result of applying a baseline to a run's findings.
pub struct BaselineSplit {
    /// Findings not covered by the baseline — these fail the run.
    pub fresh: Vec<Finding>,
    /// Findings absorbed by baseline budget.
    pub baselined: Vec<Finding>,
    /// Baseline entries with leftover budget — debt that has been
    /// paid down (or moved); the baseline file should shrink.
    pub stale: Vec<BaselineEntry>,
}

/// Splits `findings` into fresh vs. baselined and reports stale
/// baseline budget.
pub fn apply(baseline: &Baseline, findings: Vec<Finding>) -> BaselineSplit {
    let mut budget: Vec<(BaselineEntry, u32)> = baseline
        .findings
        .iter()
        .map(|e| (e.clone(), e.count))
        .collect();
    let mut fresh = Vec::new();
    let mut baselined = Vec::new();
    for f in findings {
        let slot = budget.iter_mut().find(|(e, left)| {
            *left > 0 && e.rule == f.rule && e.file == f.file && e.snippet == f.snippet
        });
        match slot {
            Some((_, left)) => {
                *left -= 1;
                baselined.push(f);
            }
            None => fresh.push(f),
        }
    }
    let stale = budget
        .into_iter()
        .filter(|(_, left)| *left > 0)
        .map(|(mut e, left)| {
            e.count = left;
            e
        })
        .collect();
    BaselineSplit {
        fresh,
        baselined,
        stale,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn f(rule: &str, file: &str, snippet: &str) -> Finding {
        Finding {
            rule: rule.to_owned(),
            file: file.to_owned(),
            line: 1,
            snippet: snippet.to_owned(),
            note: String::new(),
        }
    }

    #[test]
    fn baseline_roundtrips_and_budgets_apply() {
        let findings = vec![
            f("P1", "a.rs", "x.unwrap()"),
            f("P1", "a.rs", "x.unwrap()"),
            f("D2", "b.rs", "for k in map {"),
        ];
        let b = Baseline::covering(&findings);
        let b2 = Baseline::parse(&b.render()).unwrap();
        assert_eq!(b2.findings.len(), 2);

        // All covered → nothing fresh, nothing stale.
        let split = apply(&b2, findings.clone());
        assert!(split.fresh.is_empty());
        assert_eq!(split.baselined.len(), 3);
        assert!(split.stale.is_empty());

        // One extra of a covered shape overflows the budget.
        let mut more = findings.clone();
        more.push(f("P1", "a.rs", "x.unwrap()"));
        let split = apply(&b2, more);
        assert_eq!(split.fresh.len(), 1);

        // A fixed finding leaves stale budget behind.
        let split = apply(&b2, vec![f("D2", "b.rs", "for k in map {")]);
        assert!(split.fresh.is_empty());
        assert_eq!(split.stale.len(), 1);
        assert_eq!(split.stale[0].rule, "P1");
        assert_eq!(split.stale[0].count, 2);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        assert!(Baseline::parse("{\"schema\":9,\"findings\":[]}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }
}
