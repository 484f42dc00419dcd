//! Leak reports and their human-readable rendering.

use crate::flows::OutsideEdge;
use crate::governor::Confidence;
use crate::witness::{EscapeChain, HopBase};
use leakchecker_effects::{Era, TypeKey};
use leakchecker_ir::ids::AllocSite;
use leakchecker_ir::Program;
use leakchecker_pointsto::Context;
use std::fmt::Write as _;

/// One reported leaking allocation site.
#[derive(Clone, Debug)]
pub struct LeakReport {
    /// The leaking allocation site.
    pub site: AllocSite,
    /// Its extended-recency classification.
    pub era: Era,
    /// The redundant reference edges (field of an outside object through
    /// which instances are kept alive but never read back).
    pub edges: Vec<OutsideEdge>,
    /// Calling contexts under which the site executes inside the loop.
    pub contexts: Vec<Context>,
    /// Human-readable allocation description (e.g. `"new Order"`).
    pub describe: String,
    /// Qualified name of the method containing the allocation.
    pub method: String,
    /// Whether the evidence behind this report was computed at full
    /// precision or fell down the degradation ladder (see
    /// [`crate::governor`]).
    pub confidence: Confidence,
    /// Replayable escape chains, one per edge in `edges`, in edge order.
    /// Empty unless witness recording was enabled.
    pub witnesses: Vec<EscapeChain>,
}

impl LeakReport {
    /// Renders the report as the tool's plain-text output.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let degraded = match self.confidence.cause() {
            Some(cause) => format!(" (degraded: {cause})"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "leak: {} ({}) allocated in {} [ERA = {}]{degraded}",
            self.describe, self.site, self.method, self.era
        );
        for edge in &self.edges {
            let base = match edge.base {
                Some(TypeKey::Site(s)) => {
                    format!("{} ({s})", program.alloc(s).describe)
                }
                Some(TypeKey::Globals) => "<static fields>".to_string(),
                None => "<unknown object>".to_string(),
            };
            let _ = writeln!(
                out,
                "  redundant edge: {}.{}",
                base,
                program.field(edge.field).name
            );
        }
        if self.contexts.is_empty() {
            let _ = writeln!(out, "  context: <loop body>");
        }
        for ctx in &self.contexts {
            let _ = writeln!(out, "  context: {ctx}");
        }
        out
    }

    /// Renders the report with its escape-chain witnesses (`--explain`):
    /// the plain render, plus under each redundant edge a numbered,
    /// source-anchored escape chain and the flows-in frontier the
    /// detector searched but found empty.
    ///
    /// The plain [`render`](Self::render) output is a prefix-preserved
    /// subset: explain only *inserts* lines after each edge, so tooling
    /// keyed on the plain format keeps working.
    pub fn render_explain(&self, program: &Program) -> String {
        let mut out = String::new();
        let degraded = match self.confidence.cause() {
            Some(cause) => format!(" (degraded: {cause})"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "leak: {} ({}) allocated in {} [ERA = {}]{degraded}",
            self.describe, self.site, self.method, self.era
        );
        for edge in &self.edges {
            let base = base_str(program, edge.base);
            let field = program.field(edge.field).name.clone();
            let _ = writeln!(out, "  redundant edge: {base}.{field}");
            match self.witnesses.iter().find(|c| c.edge == *edge) {
                Some(chain) => {
                    let _ = writeln!(out, "    escape chain:");
                    for (i, hop) in chain.hops.iter().enumerate() {
                        let hop_base = match &hop.base {
                            HopBase::Inside(s) => base_str(program, Some(TypeKey::Site(*s))),
                            HopBase::Outside(key) => base_str(program, *key),
                        };
                        let lib = if hop.in_library { " [library]" } else { "" };
                        let anchor = match &hop.stmt {
                            Some(a) => format!(" [stmt#{} in {}: {}]", a.id, a.method, a.text),
                            None => String::new(),
                        };
                        let _ = writeln!(
                            out,
                            "      {}. {} ({}) --{}--> {}{lib}{anchor}",
                            i + 1,
                            program.alloc(hop.value).describe,
                            hop.value,
                            program.field(hop.field).name,
                            hop_base,
                        );
                    }
                    if !chain.complete {
                        let _ = writeln!(
                            out,
                            "      (incomplete: escape path not fully reconstructed)"
                        );
                    }
                    if chain.matched_in {
                        let _ = writeln!(
                            out,
                            "    frontier: a matching `{base}.{field}` load exists; reported for ERA"
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "    frontier: no matching `{base}.{field}` load reaches a later iteration"
                        );
                    }
                }
                None => {
                    let _ = writeln!(out, "    escape chain: <not recorded>");
                }
            }
        }
        if self.contexts.is_empty() {
            let _ = writeln!(out, "  context: <loop body>");
        }
        for ctx in &self.contexts {
            let _ = writeln!(out, "  context: {ctx}");
        }
        out
    }
}

/// Renders an outside-edge base object (shared by both render modes).
fn base_str(program: &Program, base: Option<TypeKey>) -> String {
    match base {
        Some(TypeKey::Site(s)) => format!("{} ({s})", program.alloc(s).describe),
        Some(TypeKey::Globals) => "<static fields>".to_string(),
        None => "<unknown object>".to_string(),
    }
}

/// Renders a full result summary, one block per report.
pub fn render_all(program: &Program, reports: &[LeakReport]) -> String {
    if reports.is_empty() {
        return "no leaks reported\n".to_string();
    }
    let mut out = String::new();
    for (i, report) in reports.iter().enumerate() {
        let _ = write!(out, "[{}] {}", i + 1, report.render(program));
    }
    out
}

/// Renders a full result summary with escape-chain witnesses
/// (`--explain`), one block per report.
pub fn render_all_explained(program: &Program, reports: &[LeakReport]) -> String {
    if reports.is_empty() {
        return "no leaks reported\n".to_string();
    }
    let mut out = String::new();
    for (i, report) in reports.iter().enumerate() {
        let _ = write!(out, "[{}] {}", i + 1, report.render_explain(program));
    }
    out
}

/// Escapes a string for embedding in a JSON document: quotes,
/// backslashes, and control characters (`\n`, `\t`, `\r` by name,
/// the rest as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{check, DetectorConfig};
    use crate::target::CheckTarget;
    use leakchecker_frontend::compile;

    #[test]
    fn render_includes_site_edge_and_context() {
        let unit = compile(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        let text = render_all(&result.program, &result.reports);
        assert!(text.contains("new Item"), "{text}");
        assert!(text.contains("redundant edge"), "{text}");
        assert!(text.contains("new Holder"), "{text}");
        assert!(text.contains("item"), "{text}");
    }

    #[test]
    fn explain_renders_numbered_anchored_chain_and_frontier() {
        let unit = compile(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig {
                witnesses: true,
                ..DetectorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.reports.len(), 1);
        let report = &result.reports[0];
        assert_eq!(report.witnesses.len(), report.edges.len());
        assert!(report.witnesses[0].complete);
        let text = render_all_explained(&result.program, &result.reports);
        assert!(text.contains("escape chain:"), "{text}");
        assert!(text.contains("      1. new Item"), "{text}");
        assert!(text.contains("--item--> new Holder"), "{text}");
        assert!(text.contains("[stmt#"), "{text}");
        assert!(text.contains("h.item = it"), "{text}");
        assert!(text.contains("frontier: no matching `new Holder"), "{text}");
        // The plain render is unchanged and contains no witness lines.
        let plain = render_all(&result.program, &result.reports);
        assert!(!plain.contains("escape chain"), "{plain}");
        // Explain preserves every plain line (it only inserts).
        for line in plain.lines() {
            assert!(text.contains(line), "missing {line:?} in explain output");
        }
    }

    #[test]
    fn witnesses_off_by_default_and_reports_unchanged() {
        let unit = compile(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let plain = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        assert!(plain.reports[0].witnesses.is_empty());
        assert!(plain.traces.is_empty());
        let explained = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig {
                witnesses: true,
                ..DetectorConfig::default()
            },
        )
        .unwrap();
        // Witness recording must not perturb the analysis verdicts.
        assert_eq!(
            render_all(&plain.program, &plain.reports),
            render_all(&explained.program, &explained.reports)
        );
        assert!(!explained.traces.is_empty());
    }

    #[test]
    fn render_empty() {
        let unit =
            compile("class Main { static void main() { @check while (nondet()) { } } }").unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        assert_eq!(
            render_all(&result.program, &result.reports),
            "no leaks reported\n"
        );
    }

    #[test]
    fn json_escape_names_common_controls_and_hex_escapes_the_rest() {
        assert_eq!(
            json_escape("q\"b\\n\nt\tr\r\u{1}é"),
            "q\\\"b\\\\n\\nt\\tr\\r\\u0001é"
        );
    }
}
