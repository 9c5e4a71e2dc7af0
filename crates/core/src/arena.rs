//! Attack/defense co-evolution arena (paper Section 9, evaluated).
//!
//! The paper proposes mitigations but never pits them against an attacker
//! that *adapts*. This module closes that loop with a full tournament: every
//! channel family — the five static attackers of [`Family::MATRIX`] plus
//! the adaptive degradation-ladder link of [`crate::linkmon`] as the
//! headline attacker — against every deployed defense and defense
//! *combination* ([`DefenseSpec`]), reporting the **residual bandwidth**
//! each attacker retains in every cell of the matrix.
//!
//! The matrix makes the composition argument measurable: cache partitioning
//! alone zeroes the cache channels but leaves the atomic and SFU rows at
//! full bandwidth, and the adaptive attacker *demonstrates* the gap by
//! hopping families mid-transmission (its escalation trace is recorded per
//! cell). Only a composed defense covering every contended resource pushes
//! the whole column to zero.

use crate::bits::Message;
use crate::linkmon::{AdaptiveLink, LadderStage, LinkEnvironment};
use crate::mitigations::{evaluate_against_family, MitigationVerdict};
use crate::CovertError;
use gpgpu_spec::topology::canonical_alias;
use gpgpu_spec::{DefenseSpec, DeviceSpec, Family, TopologySpec};
use std::fmt::Write as _;

/// One attacker row of the arena matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attacker {
    /// A single channel family with fixed parameters (no adaptation).
    Static(Family),
    /// The adaptive link layer: framing + ARQ + online recalibration +
    /// the family-fallback degradation ladder.
    Adaptive,
}

impl Attacker {
    /// Every attacker, in matrix-row order (static families first, the
    /// adaptive ladder last).
    pub const ALL: [Attacker; 6] = [
        Attacker::Static(Family::L1),
        Attacker::Static(Family::Sync),
        Attacker::Static(Family::ParallelSfu),
        Attacker::Static(Family::Atomic),
        Attacker::Static(Family::Nvlink),
        Attacker::Adaptive,
    ];

    /// Short label for matrix rows and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Attacker::Static(family) => family.label(),
            Attacker::Adaptive => "adaptive",
        }
    }
}

/// Arena parameters: the device, the defense columns, and the message.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Device every on-chip attacker runs on.
    pub spec: DeviceSpec,
    /// Defense columns beyond the implicit undefended baseline column.
    pub defenses: Vec<DefenseSpec>,
    /// Message length in bits.
    pub bits: usize,
    /// Message seed (the matrix is deterministic given config).
    pub seed: u64,
    /// Multi-GPU topology for the nvlink row and the adaptive ladder's
    /// off-die rung. `None` turns nvlink cells into typed not-evaluable
    /// entries and removes the ladder's last escape hatch.
    pub topology: Option<TopologySpec>,
    /// BER at or above which a channel counts as broken (residual
    /// bandwidth zero).
    pub min_ber: f64,
}

impl ArenaConfig {
    /// The default tournament on `spec`: a 16-bit message against the three
    /// single mitigations (partition=2, randsched, fuzz=4096) plus one
    /// composed defense, with a dual-GPU topology of the same device so
    /// every family is evaluable.
    pub fn new(spec: DeviceSpec) -> Self {
        let defenses = ["partition=2", "randsched=0xd1ce", "fuzz=4096", "partition=2,fuzz=4096"]
            .iter()
            .map(|s| DefenseSpec::from_spec(s).expect("default defenses are well-formed"))
            .collect();
        let topology = canonical_alias(&spec.name).and_then(|alias| TopologySpec::dual(alias).ok());
        ArenaConfig { spec, defenses, bits: 16, seed: 0xA12E, topology, min_ber: 0.2 }
    }

    /// Replaces the defense columns (the undefended baseline stays implicit).
    pub fn with_defenses(mut self, defenses: Vec<DefenseSpec>) -> Self {
        self.defenses = defenses;
        self
    }

    /// Sets the message length.
    pub fn with_bits(mut self, bits: usize) -> Self {
        self.bits = bits;
        self
    }

    /// Sets the multi-GPU topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Removes the topology: nvlink cells become typed not-evaluable
    /// entries and the adaptive ladder loses its off-die rung.
    pub fn without_topology(mut self) -> Self {
        self.topology = None;
        self
    }
}

/// One cell of the matrix: one attacker under one defense.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaCell {
    /// The defense this cell ran under.
    pub defense: DefenseSpec,
    /// Bit error rate of the attacker's best delivered (or best-effort)
    /// message under the defense.
    pub ber: f64,
    /// Bandwidth (kb/s) the attacker retains under the defense; zero once
    /// the defense has broken the channel.
    pub residual_bandwidth_kbps: f64,
    /// Whether the attacker still delivered the message under the defense.
    pub delivered: bool,
    /// Three-state defense verdict (static attackers only; the adaptive
    /// attacker has no per-family baseline to compare against).
    pub verdict: Option<MitigationVerdict>,
    /// The family the adaptive ladder settled on (adaptive row only).
    pub final_family: Option<String>,
    /// Whether the adaptive attacker *escaped* this defense by hopping to
    /// another channel family (a [`LadderStage::Fallback`] event fired and
    /// the message was still delivered).
    pub fallback_escape: bool,
    /// The adaptive ladder's full escalation trace for this cell, one line
    /// per rung (empty for static attackers).
    pub escalation: Vec<String>,
    /// Typed reason the cell is not evaluable (e.g. the nvlink family
    /// without a topology); such cells score zero residual bandwidth.
    pub error: Option<String>,
}

impl ArenaCell {
    fn not_evaluable(defense: &DefenseSpec, error: String) -> Self {
        ArenaCell {
            defense: defense.clone(),
            ber: 1.0,
            residual_bandwidth_kbps: 0.0,
            delivered: false,
            verdict: None,
            final_family: None,
            fallback_escape: false,
            escalation: Vec::new(),
            error: Some(error),
        }
    }
}

/// One attacker row.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRow {
    /// The attacker.
    pub attacker: Attacker,
    /// One cell per defense column, in [`ArenaReport::defenses`] order.
    pub cells: Vec<ArenaCell>,
}

/// The full residual-bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaReport {
    /// Device name the tournament ran on.
    pub device: String,
    /// Message length in bits.
    pub bits: usize,
    /// BER cutoff used for residual bandwidth.
    pub min_ber: f64,
    /// Defense columns (column 0 is always the undefended baseline).
    pub defenses: Vec<DefenseSpec>,
    /// Attacker rows, in [`Attacker::ALL`] order.
    pub rows: Vec<ArenaRow>,
}

impl ArenaReport {
    /// The cell for `attacker` under the defense whose canonical spec
    /// string is `defense`.
    pub fn cell(&self, attacker: Attacker, defense: &str) -> Option<&ArenaCell> {
        let col = self.defenses.iter().position(|d| d.to_spec() == defense)?;
        self.rows.iter().find(|r| r.attacker == attacker).and_then(|r| r.cells.get(col))
    }

    /// Every adaptive-row cell where the attacker escaped the deployed
    /// defense via family fallback — the cells proving that defending one
    /// resource only reroutes the channel.
    pub fn fallback_escapes(&self) -> Vec<&ArenaCell> {
        self.rows
            .iter()
            .filter(|r| r.attacker == Attacker::Adaptive)
            .flat_map(|r| r.cells.iter())
            .filter(|c| c.fallback_escape)
            .collect()
    }

    /// Renders the matrix as an aligned text table with a legend.
    pub fn render(&self) -> String {
        let cols: Vec<String> = self.defenses.iter().map(|d| d.to_spec()).collect();
        let cell_text = |c: &ArenaCell| -> String {
            if c.error.is_some() {
                "x".to_string()
            } else if c.residual_bandwidth_kbps == 0.0 {
                "-".to_string()
            } else {
                let marker = if c.fallback_escape { "^" } else { "" };
                format!("{:.2}{marker}", c.residual_bandwidth_kbps)
            }
        };
        let mut widths: Vec<usize> = cols.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.cells
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let t = cell_text(c);
                        widths[i] = widths[i].max(t.len());
                        t
                    })
                    .collect()
            })
            .collect();
        let name_w = self.rows.iter().map(|r| r.attacker.label().len()).max().unwrap_or(0).max(8);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "residual bandwidth (kb/s) on {} at max BER {:.2}",
            self.device, self.min_ber
        );
        let _ = writeln!(
            out,
            "  '-' defense broke the channel, 'x' not evaluable, '^' delivered via family fallback"
        );
        let _ = write!(out, "{:<name_w$}", "attacker");
        for (c, w) in cols.iter().zip(&widths) {
            let _ = write!(out, " | {c:>w$}");
        }
        out.push('\n');
        for (row, cells) in self.rows.iter().zip(&rendered) {
            let _ = write!(out, "{:<name_w$}", row.attacker.label());
            for (t, w) in cells.iter().zip(&widths) {
                let _ = write!(out, " | {t:>w$}");
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the full matrix (escalation traces included) as JSON.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"device\": \"{}\",", esc(&self.device));
        let _ = writeln!(out, "  \"bits\": {},", self.bits);
        let _ = writeln!(out, "  \"min_ber\": {},", self.min_ber);
        let defenses: Vec<String> =
            self.defenses.iter().map(|d| format!("\"{}\"", esc(&d.to_spec()))).collect();
        let _ = writeln!(out, "  \"defenses\": [{}],", defenses.join(", "));
        out.push_str("  \"rows\": [\n");
        for (ri, row) in self.rows.iter().enumerate() {
            let _ = writeln!(out, "    {{\"attacker\": \"{}\", \"cells\": [", row.attacker.label());
            for (ci, c) in row.cells.iter().enumerate() {
                let verdict = c.verdict.map_or("null".to_string(), |v| format!("\"{v}\""));
                let final_family = c
                    .final_family
                    .as_deref()
                    .map_or("null".to_string(), |f| format!("\"{}\"", esc(f)));
                let error =
                    c.error.as_deref().map_or("null".to_string(), |e| format!("\"{}\"", esc(e)));
                let escalation: Vec<String> =
                    c.escalation.iter().map(|e| format!("\"{}\"", esc(e))).collect();
                let _ = write!(
                    out,
                    "      {{\"defense\": \"{}\", \"ber\": {}, \"residual_kbps\": {}, \
                     \"delivered\": {}, \"verdict\": {}, \"final_family\": {}, \
                     \"fallback_escape\": {}, \"error\": {}, \"escalation\": [{}]}}",
                    esc(&c.defense.to_spec()),
                    c.ber,
                    c.residual_bandwidth_kbps,
                    c.delivered,
                    verdict,
                    final_family,
                    c.fallback_escape,
                    error,
                    escalation.join(", ")
                );
                out.push_str(if ci + 1 < row.cells.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]}");
            out.push_str(if ri + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn static_cell(
    config: &ArenaConfig,
    family: Family,
    defense: &DefenseSpec,
    msg: &Message,
) -> ArenaCell {
    match evaluate_against_family(&config.spec, family, defense, msg, config.topology.as_ref()) {
        Ok(report) => {
            let residual = report.residual_bandwidth_kbps(config.min_ber);
            ArenaCell {
                defense: defense.clone(),
                ber: report.mitigated.ber,
                residual_bandwidth_kbps: residual,
                delivered: residual > 0.0,
                verdict: Some(report.verdict(config.min_ber)),
                final_family: None,
                fallback_escape: false,
                escalation: Vec::new(),
                error: None,
            }
        }
        Err(e) => ArenaCell::not_evaluable(defense, e.to_string()),
    }
}

fn adaptive_cell(config: &ArenaConfig, defense: &DefenseSpec, msg: &Message) -> ArenaCell {
    let mut env = LinkEnvironment::clean().with_defense(defense);
    if let Some(topology) = &config.topology {
        env = env.with_topology(topology.clone());
    }
    let link = AdaptiveLink::new(config.spec.clone()).with_env(env);
    match link.transmit(msg) {
        Ok(out) => {
            let delivered = out.diagnostic.delivered;
            let residual = if delivered && out.report.cycles > 0 {
                config.spec.bandwidth_kbps(msg.len() as u64, out.report.cycles)
            } else {
                0.0
            };
            let fallback_escape =
                delivered && out.diagnostic.stages.iter().any(|s| s.stage == LadderStage::Fallback);
            let escalation = out
                .diagnostic
                .stages
                .iter()
                .map(|s| format!("{}[{}]: {}", s.stage.label(), s.family.label(), s.detail))
                .collect();
            ArenaCell {
                defense: defense.clone(),
                ber: out.diagnostic.ber,
                residual_bandwidth_kbps: residual,
                delivered,
                verdict: None,
                final_family: Some(out.diagnostic.final_family.label().to_string()),
                fallback_escape,
                escalation,
                error: None,
            }
        }
        Err(e) => ArenaCell::not_evaluable(defense, e.to_string()),
    }
}

/// Runs the full tournament: every attacker of [`Attacker::ALL`] against
/// the undefended baseline plus every defense column of `config`, on one
/// deterministic message. Per-cell failures (e.g. nvlink without a
/// topology) are recorded as typed not-evaluable cells, never aborting the
/// matrix.
///
/// # Errors
///
/// [`CovertError::Config`] when `config.bits` is zero (an empty message
/// has no bandwidth to measure).
pub fn run_arena(config: &ArenaConfig) -> Result<ArenaReport, CovertError> {
    if config.bits == 0 {
        return Err(CovertError::Config {
            reason: "arena message must have at least one bit".into(),
        });
    }
    let msg = Message::pseudo_random(config.bits, config.seed);
    let mut defenses = vec![DefenseSpec::none()];
    for d in &config.defenses {
        if !defenses.contains(d) {
            defenses.push(d.clone());
        }
    }
    let rows = Attacker::ALL
        .iter()
        .map(|&attacker| ArenaRow {
            attacker,
            cells: defenses
                .iter()
                .map(|defense| match attacker {
                    Attacker::Static(family) => static_cell(config, family, defense, &msg),
                    Attacker::Adaptive => adaptive_cell(config, defense, &msg),
                })
                .collect(),
        })
        .collect();
    Ok(ArenaReport {
        device: config.spec.name.clone(),
        bits: config.bits,
        min_ber: config.min_ber,
        defenses,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn attacker_labels_are_stable() {
        let labels: Vec<&str> = Attacker::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["l1", "sync", "parallel-sfu", "atomic", "nvlink", "adaptive"]);
    }

    #[test]
    fn default_config_has_a_composed_defense_and_a_topology() {
        let config = ArenaConfig::new(presets::tesla_k40c());
        assert!(config.defenses.iter().any(|d| d.components().len() >= 2));
        assert!(config.topology.is_some());
        assert_eq!(config.min_ber, 0.2);
    }

    #[test]
    fn zero_bit_arena_is_a_typed_error() {
        let config = ArenaConfig::new(presets::tesla_k40c()).with_bits(0);
        assert!(matches!(run_arena(&config), Err(CovertError::Config { .. })));
    }

    #[test]
    fn small_matrix_baseline_column_carries_bandwidth() {
        // One family, one defense: the cheapest end-to-end pass through the
        // matrix machinery (the full tournament lives in the integration
        // tests).
        let config = ArenaConfig::new(presets::tesla_k40c())
            .with_bits(8)
            .with_defenses(vec![DefenseSpec::from_spec("fuzz=8").unwrap()]);
        let msg = Message::pseudo_random(8, config.seed);
        let cell = static_cell(&config, Family::L1, &DefenseSpec::none(), &msg);
        assert!(cell.error.is_none());
        assert!(cell.delivered);
        assert!(cell.residual_bandwidth_kbps > 0.0);
        assert_eq!(cell.verdict, Some(MitigationVerdict::Ineffective));
    }

    #[test]
    fn report_rendering_and_json_shapes() {
        let cell = ArenaCell {
            defense: DefenseSpec::from_spec("partition=2").unwrap(),
            ber: 0.0,
            residual_bandwidth_kbps: 12.5,
            delivered: true,
            verdict: None,
            final_family: Some("atomic".to_string()),
            fallback_escape: true,
            escalation: vec!["fallback[atomic]: switching family l1-sync -> atomic".to_string()],
            error: None,
        };
        let report = ArenaReport {
            device: "Tesla K40C".to_string(),
            bits: 16,
            min_ber: 0.2,
            defenses: vec![DefenseSpec::from_spec("partition=2").unwrap()],
            rows: vec![ArenaRow { attacker: Attacker::Adaptive, cells: vec![cell] }],
        };
        let text = report.render();
        assert!(text.contains("attacker"), "{text}");
        assert!(text.contains("partition=2"), "{text}");
        assert!(text.contains("12.50^"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"fallback_escape\": true"), "{json}");
        assert!(json.contains("\"final_family\": \"atomic\""), "{json}");
        assert_eq!(report.fallback_escapes().len(), 1);
        assert!(report.cell(Attacker::Adaptive, "partition=2").is_some());
        assert!(report.cell(Attacker::Adaptive, "none").is_none());
    }
}
